package dift_test

// Batch propagation must be observationally identical to stepping each
// event in order: the offloaded pipeline consumes the recorder's
// relevance-filtered batches, and that must leave exactly the labels
// and sink observations the inline engine produced from every live
// event of the same run. This differential suite replays real event
// streams (every prog workload plus progen-generated concurrent
// programs) both ways, under two domains, and compares every register
// file, the shadow memory and the sink observation sequence. The
// tests are named after StepBatch, the batch transfer function the
// pipeline once ran in place of the engine, and the "default" suffix
// names the engine's one rule set. The test lives in an external
// package so it can use pipeline and progen (which import dift).

import (
	"fmt"
	"testing"

	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/progen"
	"scaldift/internal/vm"
)

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

// diffReplay runs m once with an inline engine (event by event) and a
// relevance-filtered recorder attached, then consumes the recorded
// batches with a pipeline (batch at a time), and fails on any
// divergence in registers, memory, or sink observations.
func diffReplay[L comparable](t *testing.T, dom, pdom dift.Domain[L], m *vm.Machine) {
	t.Helper()
	eng := dift.NewEngine[L](dom, dift.DefaultPolicy())
	stepSink := &obsSink[L]{}
	eng.AddSink(stepSink)
	m.AttachTool(eng)
	batches, res := pipeline.Collect(m, vm.DefaultBatchEvents)
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	// Remember every written cell before Consume recycles the batches.
	var written []int64
	for _, b := range batches {
		for i := range b.Events {
			if addr := b.Events[i].DstMem; addr != vm.NoAddr {
				written = append(written, addr)
			}
		}
	}
	p := pipeline.New[L](pdom, dift.DefaultPolicy(), pipeline.Options{})
	batchSink := &obsSink[L]{}
	p.AddSink(batchSink)
	p.Consume(batches)

	if len(stepSink.got) != len(batchSink.got) {
		t.Fatalf("sink observations: per event %d, batched %d", len(stepSink.got), len(batchSink.got))
	}
	for i := range stepSink.got {
		if stepSink.got[i] != batchSink.got[i] {
			t.Fatalf("sink obs %d: per event %+v, batched %+v", i, stepSink.got[i], batchSink.got[i])
		}
	}
	for tid := range m.Threads {
		for r := 0; r < isa.NumRegs; r++ {
			if s, b := eng.RegTaint(tid, r), p.RegTaint(tid, r); s != b {
				t.Fatalf("tid %d r%d: per event %v, batched %v", tid, r, s, b)
			}
		}
	}
	if sw, bw := eng.TaintedWords(), p.TaintedWords(); sw != bw {
		t.Fatalf("tainted words: per event %d, batched %d", sw, bw)
	}
	// Only an event's DstMem is ever written.
	for _, addr := range written {
		if s, b := eng.MemTaint(addr), p.MemTaint(addr); s != b {
			t.Fatalf("mem[%d]: per event %v, batched %v", addr, s, b)
		}
	}
}

func TestStepBatchMatchesStepOnWorkloads(t *testing.T) {
	for _, w := range prog.All() {
		t.Run(w.Name+"/bool/default", func(t *testing.T) {
			diffReplay[bool](t, dift.Bool{}, dift.Bool{}, w.NewMachine())
		})
		t.Run(w.Name+"/pc/default", func(t *testing.T) {
			diffReplay[dift.PCLabel](t, dift.PC{}, dift.PC{}, w.NewMachine())
		})
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
		t.Run(fmt.Sprintf("seed%d/default", seed), func(t *testing.T) {
			diffReplay[bool](t, dift.Bool{}, dift.Bool{}, m)
		})
	}
}
