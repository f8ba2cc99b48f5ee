package vm

import (
	"fmt"
	"testing"

	"scaldift/internal/isa"
)

// BenchmarkRecorderOnEvent measures the per-event cost the recorder
// adds to the execution thread — the filter check plus the struct
// copy that replaces a full inline analysis tool in the offloaded
// designs.
func BenchmarkRecorderOnEvent(b *testing.B) {
	var rec *Recorder
	rec = NewRecorder(DefaultBatchEvents, nil, func(bt *Batch) { rec.Free(bt) })
	ins := isa.Instr{}
	ev := Event{Kind: EvCompute, Instr: &ins, DstReg: 1, NSrc: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i + 1)
		ev.ThreadSeq = uint64(i + 1)
		rec.OnEvent(nil, &ev)
	}
	rec.Flush()
}

// BenchmarkRecorderRun measures whole-run recording overhead on a
// tight loop, against the tool-free machine (reported as events/s):
// once on one thread, once with the loop on four preempted threads,
// where consecutive events keep changing thread under the recorder.
func BenchmarkRecorderRun(b *testing.B) {
	const loop = `
    movi r1, 0
loop:
    movi r2, %d
    bge r1, r2, done
    addi r1, r1, 1
    store r0, r1, 0
    br loop
done:
    halt
`
	progs := []struct {
		name string
		prog *isa.Program
		cfg  Config
	}{
		{"threads=1", isa.MustAssemble("t", fmt.Sprintf(loop, 20000)), Config{}},
		{"threads=4", isa.MustAssemble("t", `
    spawn r20, r0, worker
    spawn r21, r0, worker
    spawn r22, r0, worker
    spawn r23, r0, worker
    join r20
    join r21
    join r22
    join r23
    halt
worker:`+fmt.Sprintf(loop, 5000)), Config{Seed: 1, RandomPreempt: true}},
	}
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			var steps uint64
			for i := 0; i < b.N; i++ {
				m := MustNew(p.prog, p.cfg)
				var rec *Recorder
				rec = NewRecorder(DefaultBatchEvents, nil, func(bt *Batch) { rec.Free(bt) })
				m.AttachTool(rec)
				if res := m.Run(); res.Failed {
					b.Fatal(res.FailMsg)
				}
				rec.Flush()
				steps += m.Steps()
			}
			if el := b.Elapsed().Seconds(); el > 0 {
				b.ReportMetric(float64(steps)/el, "events/s")
			}
		})
	}
}
