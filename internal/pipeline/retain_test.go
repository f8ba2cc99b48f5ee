package pipeline

import (
	"fmt"
	"testing"

	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// retainSink deliberately violates the inline-tool contract: it keeps
// every delivered *vm.Event past the callback, alongside a copy taken
// at delivery time. The pipeline promises sinks a private, stable
// event copy, so pointer and copy must still agree after the run —
// they would not if the pointer aimed into a recorder batch that went
// back to the pool and was overwritten (the reuse hazard this test
// pins, forced by BatchEvents: 4, QueueDepth: 1).
type retainSink struct {
	evs  []*vm.Event
	want []vm.Event
}

func (s *retainSink) OnOutput(ev *vm.Event, _ bool) {
	s.evs = append(s.evs, ev) //scaldift:ignore poolescape deliberate retention: this test proves sinks get per-delivery copies
	s.want = append(s.want, *ev)
}

func (s *retainSink) OnIndirectBranch(ev *vm.Event, _ bool) {
	s.evs = append(s.evs, ev) //scaldift:ignore poolescape deliberate retention: this test proves sinks get per-delivery copies
	s.want = append(s.want, *ev)
}

func runRetain(t *testing.T, text string, inputs []int64) *retainSink {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.MustNew(p, vm.Config{})
	if inputs != nil {
		m.SetInput(0, inputs)
	}
	pl := New[bool](dift.Bool{}, dift.DefaultPolicy(),
		Options{BatchEvents: 4, QueueDepth: 1})
	sink := &retainSink{}
	pl.AddSink(sink)
	if res := Run(m, pl); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	return sink
}

func checkRetained(t *testing.T, s *retainSink) {
	t.Helper()
	if len(s.evs) == 0 {
		t.Fatal("no sink deliveries")
	}
	for i, ev := range s.evs {
		if *ev != s.want[i] {
			t.Fatalf("retained event %d was overwritten by pool reuse:\nnow  %+v\nwas  %+v",
				i, *ev, s.want[i])
		}
	}
	// The deliveries must also be distinct storage, not one reused
	// cell that happens to hold the last event.
	seen := map[*vm.Event]int{}
	for i, ev := range s.evs {
		if j, dup := seen[ev]; dup {
			t.Fatalf("deliveries %d and %d share storage", j, i)
		}
		seen[ev] = i
	}
}

// TestSinkEventsSurvivePoolReuse drives a single-thread run: tiny
// batches and a depth-1 queue make the recorder recycle a batch
// almost immediately after its hand-off, so a stale pointer into it
// is guaranteed to be overwritten while the run is still going.
func TestSinkEventsSurvivePoolReuse(t *testing.T) {
	s := runRetain(t, `
    in r1, 0
    movi r2, 0
loop:
    movi r3, 100
    bge r2, r3, done
    add r4, r1, r2
    out r4, 1
    addi r2, r2, 1
    br loop
done:
    halt
`, []int64{7})
	if len(s.evs) != 100 {
		t.Fatalf("expected 100 outputs, got %d", len(s.evs))
	}
	checkRetained(t, s)
	// Spot-check payloads: outputs carry distinct, increasing Seq.
	for i := 1; i < len(s.evs); i++ {
		if s.evs[i].Seq <= s.evs[i-1].Seq {
			t.Fatalf("output %d out of order: Seq %d after %d", i, s.evs[i].Seq, s.evs[i-1].Seq)
		}
	}
}

// TestSinkEventsSurvivePoolReuseParallel drives a two-thread run,
// whose batches interleave both threads' events, through the same
// retention check.
func TestSinkEventsSurvivePoolReuseParallel(t *testing.T) {
	s := runRetain(t, fmt.Sprintf(`
.data 0, 0
    in r10, 0
    spawn r20, r10, child
    movi r2, 0
loop:
    movi r3, %d
    bge r2, r3, done
    add r4, r10, r2
    store r0, r4, 0
    out r4, 1
    addi r2, r2, 1
    br loop
done:
    join r20
    halt
child:
    movi r2, 0
cloop:
    movi r3, %d
    bge r2, r3, cdone
    add r4, r1, r2
    store r0, r4, 1
    out r4, 1
    addi r2, r2, 1
    br cloop
cdone:
    halt
`, 60, 60), []int64{3})
	if len(s.evs) != 120 {
		t.Fatalf("expected 120 outputs, got %d", len(s.evs))
	}
	checkRetained(t, s)
}
