package pipeline

import (
	"fmt"
	"testing"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/lineage"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// The differential suite: every prog.All() workload, run under both
// the inline dift.Engine and the offloaded pipeline, across >= 8
// randomized VM schedules per workload, asserting identical
// TaintedWords at halt and, for the Bool and PC domains, an identical
// sink stream (which event, which kind, which label, in which order)
// and identical register labels; lineage compares outputs as sets. The two runs of a (workload, seed) pair use
// the same deterministic schedule — tools never perturb execution —
// so any divergence is the pipeline's fault, not the scheduler's.

const diffSchedules = 8

// diffMachines builds two identical machines for one workload at the
// given schedule seed. NewMachine copies the input vectors, so one
// workload value safely serves both engines and every seed.
func diffMachines(w *prog.Workload, seed uint64) (*vm.Machine, *vm.Machine) {
	w.Cfg.Seed = seed
	w.Cfg.RandomPreempt = true
	if w.Cfg.Quantum == 0 {
		w.Cfg.Quantum = 11
	}
	return w.NewMachine(), w.NewMachine()
}

// pipelineOpts varies the hand-off shape with the schedule seed, so
// the suite holds "identical sink observations in identical order,
// inline vs offloaded" for any batch size — down to 1, where every
// hand-off is a single event — and, on one leg, a queue of one.
func pipelineOpts(seed uint64) Options {
	o := Options{BatchEvents: []int{1, 7, 64, 256, 1024}[seed%5]}
	if seed%5 == 1 {
		o.QueueDepth = 1
	}
	return o
}

// sinkObs is one sink observation with the identity of the event that
// caused it; obsSink records outputs and indirect branches in the one
// interleaved order they fired in.
type sinkObs[L comparable] struct {
	seq     uint64
	tid, pc int
	branch  bool
	label   L
}

type obsSink[L comparable] struct{ obs []sinkObs[L] }

func (s *obsSink[L]) OnOutput(ev *vm.Event, l L) {
	s.obs = append(s.obs, sinkObs[L]{ev.Seq, ev.TID, ev.PC, false, l})
}

func (s *obsSink[L]) OnIndirectBranch(ev *vm.Event, l L) {
	s.obs = append(s.obs, sinkObs[L]{ev.Seq, ev.TID, ev.PC, true, l})
}

func diffComparable[L comparable](t *testing.T, name string, w *prog.Workload, dom dift.Domain[L]) {
	t.Helper()
	for seed := uint64(0); seed < diffSchedules; seed++ {
		mi, mp := diffMachines(w, seed)

		eng := dift.NewEngine[L](dom, dift.DefaultPolicy())
		si := &obsSink[L]{}
		eng.AddSink(si)
		mi.AttachTool(eng)
		if res := mi.Run(); res.Failed {
			t.Fatalf("%s seed %d: inline run failed: %s", name, seed, res.FailMsg)
		}

		pl := New[L](dom, dift.DefaultPolicy(), pipelineOpts(seed))
		sp := &obsSink[L]{}
		pl.AddSink(sp)
		if res := Run(mp, pl); res.Failed {
			t.Fatalf("%s seed %d: pipeline run failed: %s", name, seed, res.FailMsg)
		}

		if len(si.obs) != len(sp.obs) {
			t.Fatalf("%s seed %d: %d inline sink observations vs %d pipeline", name, seed, len(si.obs), len(sp.obs))
		}
		for i := range si.obs {
			if si.obs[i] != sp.obs[i] {
				t.Fatalf("%s seed %d: sink observation %d diverged: inline %+v, pipeline %+v",
					name, seed, i, si.obs[i], sp.obs[i])
			}
		}
		for tid := range mi.Threads {
			for r := 0; r < isa.NumRegs; r++ {
				if eng.RegTaint(tid, r) != pl.RegTaint(tid, r) {
					t.Fatalf("%s seed %d: RegTaint(%d, %d) inline %v vs pipeline %v",
						name, seed, tid, r, eng.RegTaint(tid, r), pl.RegTaint(tid, r))
				}
			}
		}
		if eng.TaintedWords() != pl.TaintedWords() {
			t.Fatalf("%s seed %d: TaintedWords inline %d vs pipeline %d",
				name, seed, eng.TaintedWords(), pl.TaintedWords())
		}
	}
}

func TestDifferentialBool(t *testing.T) {
	for _, w := range prog.All() {
		t.Run(w.Name, func(t *testing.T) {
			diffComparable[bool](t, w.Name, w, dift.Bool{})
		})
	}
}

func TestDifferentialPC(t *testing.T) {
	for _, w := range prog.All() {
		t.Run(w.Name, func(t *testing.T) {
			diffComparable[dift.PCLabel](t, w.Name, w, dift.PC{})
		})
	}
}

// TestDifferentialLineage compares lineage as sets: the two engines
// own separate roBDD managers, so raw Refs are incomparable, but the
// element sets they denote must be identical output by output.
func TestDifferentialLineage(t *testing.T) {
	for _, w := range prog.All() {
		t.Run(w.Name, func(t *testing.T) {
			bits := lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8)
			for seed := uint64(0); seed < diffSchedules; seed++ {
				mi, mp := diffMachines(w, seed)

				di := lineage.NewDomain(bits)
				eng := dift.NewEngine[bdd.Ref](di, dift.DefaultPolicy())
				ri := lineage.NewRecorder(di)
				eng.AddSink(ri)
				mi.AttachTool(eng)
				if res := mi.Run(); res.Failed {
					t.Fatalf("seed %d: inline run failed: %s", seed, res.FailMsg)
				}

				dp := lineage.NewDomain(bits)
				pl := New[bdd.Ref](dp, dift.DefaultPolicy(), pipelineOpts(seed))
				rp := lineage.NewRecorder(dp)
				pl.AddSink(rp)
				if res := Run(mp, pl); res.Failed {
					t.Fatalf("seed %d: pipeline run failed: %s", seed, res.FailMsg)
				}

				if len(ri.Outputs) != len(rp.Outputs) {
					t.Fatalf("seed %d: %d inline outputs vs %d pipeline", seed, len(ri.Outputs), len(rp.Outputs))
				}
				for i := range ri.Outputs {
					oi, op := ri.Outputs[i], rp.Outputs[i]
					if oi.Ch != op.Ch || oi.Val != op.Val || oi.Seq != op.Seq {
						t.Fatalf("seed %d: output %d metadata diverged: %+v vs %+v", seed, i, oi, op)
					}
					ei := di.Manager().Elements(oi.Set, nil)
					ep := dp.Manager().Elements(op.Set, nil)
					if fmt.Sprint(ei) != fmt.Sprint(ep) {
						t.Fatalf("seed %d: output %d lineage diverged:\ninline   %v\npipeline %v", seed, i, ei, ep)
					}
				}
				if eng.TaintedWords() != pl.TaintedWords() {
					t.Fatalf("seed %d: TaintedWords inline %d vs pipeline %d",
						seed, eng.TaintedWords(), pl.TaintedWords())
				}
			}
		})
	}
}
