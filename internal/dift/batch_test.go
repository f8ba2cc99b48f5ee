package dift_test

// StepBatch must be observationally identical to calling Step on each
// event in order — it is an amortization of dispatch, not a second
// transfer function. This differential suite replays real recorded
// event streams (every prog workload plus progen-generated concurrent
// programs) through both, under multiple domains and policies, and
// compares every register file, the full shadow memory, and the sink
// observation sequence. The test lives in an external package so it
// can use progen (which imports dift).

import (
	"fmt"
	"testing"

	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/prog"
	"scaldift/internal/progen"
	"scaldift/internal/shadow"
	"scaldift/internal/vm"
)

// bank is a minimal RegBank with the stable per-tid pointers the
// contract requires.
type bank[L comparable] struct{ files []*[isa.NumRegs]L }

func (b *bank[L]) Regs(tid int) *[isa.NumRegs]L {
	for tid >= len(b.files) {
		b.files = append(b.files, new([isa.NumRegs]L))
	}
	return b.files[tid]
}

// obs is one sink observation, comparable across replays.
type obs[L comparable] struct {
	seq    uint64
	label  L
	branch bool
}

type obsSink[L comparable] struct{ got []obs[L] }

func (s *obsSink[L]) OnOutput(ev *vm.Event, l L) {
	s.got = append(s.got, obs[L]{seq: ev.Seq, label: l})
}

func (s *obsSink[L]) OnIndirectBranch(ev *vm.Event, l L) {
	s.got = append(s.got, obs[L]{seq: ev.Seq, label: l, branch: true})
}

// record runs m with a relevance-filtered recorder and returns the
// batches' event slices (copied, so pooling cannot alias them).
func record(t *testing.T, m *vm.Machine) [][]vm.Event {
	t.Helper()
	var out [][]vm.Event
	rec := vm.NewRecorder(vm.DefaultBatchEvents, dift.Relevant, func(b *vm.Batch) {
		evs := make([]vm.Event, len(b.Events))
		copy(evs, b.Events)
		out = append(out, evs)
	})
	m.AttachTool(rec)
	if res := m.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	rec.Flush()
	return out
}

// diffReplay feeds the same batch stream through Step (event by
// event) and StepBatch (batch at a time) and fails on any divergence
// in registers, memory, or sink observations.
func diffReplay[L comparable](t *testing.T, dom dift.Domain[L], pol dift.Policy, batches [][]vm.Event) {
	t.Helper()
	stepBank, batchBank := &bank[L]{}, &bank[L]{}
	stepMem, batchMem := shadow.NewMem[L](), shadow.NewMem[L]()
	stepSink, batchSink := &obsSink[L]{}, &obsSink[L]{}
	stepSinks := []dift.Sink[L]{stepSink}
	batchSinks := []dift.Sink[L]{batchSink}
	for _, evs := range batches {
		for i := range evs {
			dift.Step(dom, pol, stepBank, stepMem, stepSinks, &evs[i])
		}
		dift.StepBatch(dom, pol, batchBank, batchMem, batchSinks, evs)
	}
	if len(stepSink.got) != len(batchSink.got) {
		t.Fatalf("sink observations: Step %d, StepBatch %d", len(stepSink.got), len(batchSink.got))
	}
	for i := range stepSink.got {
		if stepSink.got[i] != batchSink.got[i] {
			t.Fatalf("sink obs %d: Step %+v, StepBatch %+v", i, stepSink.got[i], batchSink.got[i])
		}
	}
	for tid := range stepBank.files {
		sf, bf := stepBank.Regs(tid), batchBank.Regs(tid)
		for r := 0; r < isa.NumRegs; r++ {
			if sf[r] != bf[r] {
				t.Fatalf("tid %d r%d: Step %v, StepBatch %v", tid, r, sf[r], bf[r])
			}
		}
	}
	if sw, bw := stepMem.Tainted(), batchMem.Tainted(); sw != bw {
		t.Fatalf("tainted words: Step %d, StepBatch %d", sw, bw)
	}
	// Only an event's DstMem is ever written.
	for _, evs := range batches {
		for i := range evs {
			if addr := evs[i].DstMem; addr != vm.NoAddr && stepMem.Get(addr) != batchMem.Get(addr) {
				t.Fatalf("mem[%d]: Step %v, StepBatch %v", addr, stepMem.Get(addr), batchMem.Get(addr))
			}
		}
	}
}

// policies exercises both fast-loop specializations in StepBatch: the
// default rules and the address-tracking/sticky ablation.
var policies = []struct {
	name string
	pol  dift.Policy
}{
	{"default", dift.DefaultPolicy()},
	{"track-addr-sticky", dift.Policy{TrackAddresses: true, ClearOnConst: false}},
}

func TestStepBatchMatchesStepOnWorkloads(t *testing.T) {
	for _, w := range prog.All() {
		batches := record(t, w.NewMachine())
		for _, pc := range policies {
			t.Run(w.Name+"/bool/"+pc.name, func(t *testing.T) {
				diffReplay[bool](t, dift.Bool{}, pc.pol, batches)
			})
			t.Run(w.Name+"/pc/"+pc.name, func(t *testing.T) {
				diffReplay[dift.PCLabel](t, dift.PC{}, pc.pol, batches)
			})
		}
	}
}

func TestStepBatchMatchesStepOnGenerated(t *testing.T) {
	cfg := progen.DefaultGenConfig()
	for seed := uint64(1); seed <= 25; seed++ {
		g := progen.Generate(seed, cfg)
		p := g.Par
		m := vm.MustNew(g.Prog, vm.Config{
			MemWords:   p.MemWords,
			StackWords: p.StackWords,
			MaxThreads: p.MaxThreads,
			Quantum:    p.Quantum,
			Seed:       p.Seed,
			MaxSteps:   p.MaxSteps,
		})
		for ch, words := range g.Inputs {
			m.SetInput(ch, words)
		}
		batches := record(t, m)
		for _, pc := range policies {
			t.Run(fmt.Sprintf("seed%d/%s", seed, pc.name), func(t *testing.T) {
				diffReplay[bool](t, dift.Bool{}, pc.pol, batches)
			})
		}
	}
}
