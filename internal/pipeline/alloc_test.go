package pipeline

import (
	"testing"

	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// TestConsumeAllocsOneCopyPerSinkEvent pins what the helper allocates
// per batch stream once the shadow pages exist: exactly one private
// event copy (copySink) per event that reaches a sink — each OUT and
// each BRR/CALLR — even when the only sink registered is a NopSink,
// and nothing else. A change to either count has to say so here.
func TestConsumeAllocsOneCopyPerSinkEvent(t *testing.T) {
	cases := []struct {
		name string
		w    *prog.Workload
		want float64
	}{
		{"compress", prog.Compress(2000, 1), 1216},
		{"streamagg", prog.StreamAgg(2000, 4, 1), 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batches, res := Collect(tc.w.NewMachine(), vm.DefaultBatchEvents)
			if res.Failed {
				t.Fatal(res.FailMsg)
			}
			sinkEvents := 0
			for _, b := range batches {
				for i := range b.Events {
					ev := &b.Events[i]
					if ev.Kind == vm.EvOutput || ev.Instr.Op == isa.BRR || ev.Instr.Op == isa.CALLR {
						sinkEvents++
					}
				}
			}
			if float64(sinkEvents) != tc.want {
				t.Fatalf("%d sink-reaching events recorded, want %v", sinkEvents, tc.want)
			}
			p := New[bool](dift.Bool{}, dift.DefaultPolicy(), Options{})
			p.AddSink(dift.NopSink[bool]{})
			if got := testing.AllocsPerRun(3, func() { p.Consume(batches) }); got != tc.want {
				t.Fatalf("%v allocations per Consume, want %v (one event copy per sink-reaching event)", got, tc.want)
			}
		})
	}
}
