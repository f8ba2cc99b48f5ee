package pipeline

import (
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

func runBoth(t *testing.T, text string, inputs []int64, cfg vm.Config, opt Options) (*dift.Engine[bool], *dift.CollectSink[bool], *Pipeline[bool], *dift.CollectSink[bool]) {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	mi := vm.MustNew(p, cfg)
	mi.SetInput(0, inputs)
	eng := dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy())
	si := &dift.CollectSink[bool]{}
	eng.AddSink(si)
	mi.AttachTool(eng)
	if res := mi.Run(); res.Failed {
		t.Fatalf("inline run failed: %s", res.FailMsg)
	}

	mp := vm.MustNew(p, cfg)
	mp.SetInput(0, inputs)
	pl := New[bool](dift.Bool{}, dift.DefaultPolicy(), opt)
	sp := &dift.CollectSink[bool]{}
	pl.AddSink(sp)
	if res := Run(mp, pl); res.Failed {
		t.Fatalf("pipeline run failed: %s", res.FailMsg)
	}
	return eng, si, pl, sp
}

func TestPipelineMatchesInlineSingleThread(t *testing.T) {
	eng, si, pl, sp := runBoth(t, `
    in r1, 0
    movi r2, 5
    add r3, r1, r2
    store r0, r3, 10
    load r4, r0, 10
    out r4, 1
    out r2, 1
    halt
`, []int64{9}, vm.Config{}, Options{BatchEvents: 2})
	if len(sp.Outputs) != len(si.Outputs) {
		t.Fatalf("outputs: pipeline %d, inline %d", len(sp.Outputs), len(si.Outputs))
	}
	for i := range si.Outputs {
		if sp.Outputs[i] != si.Outputs[i] {
			t.Fatalf("output[%d]: pipeline %v, inline %v", i, sp.Outputs[i], si.Outputs[i])
		}
	}
	if pl.TaintedWords() != eng.TaintedWords() {
		t.Fatalf("tainted: pipeline %d, inline %d", pl.TaintedWords(), eng.TaintedWords())
	}
	if pl.MemTaint(10) != eng.MemTaint(10) {
		t.Fatal("memory label diverged")
	}
}

func TestPipelineSpawnSeedsChild(t *testing.T) {
	eng, _, pl, _ := runBoth(t, `
.data 0, 0
    in r10, 0
    spawn r20, r10, child
    join r20
    load r3, r0, 1
    out r3, 1
    halt
child:
    store r0, r1, 1
    halt
`, []int64{5}, vm.Config{}, Options{BatchEvents: 4})
	if !pl.MemTaint(1) || pl.MemTaint(1) != eng.MemTaint(1) {
		t.Fatal("spawn argument taint lost through the pipeline")
	}
	if pl.RegTaint(1, 1) != eng.RegTaint(1, 1) {
		t.Fatal("child r1 label diverged")
	}
	if pl.RegTaint(0, 20) {
		t.Fatal("spawner's tid register must stay untainted")
	}
}

// TestFiltersKeepSpawn: the recorder knows no event kinds, so keeping
// the one event that writes another thread's register labels is the
// filters' job (TestPipelineSpawnSeedsChild is the behavioural half).
func TestFiltersKeepSpawn(t *testing.T) {
	for name, keep := range map[string]func(*vm.Event) bool{
		"dift.Relevant":     dift.Relevant,
		"ddg.TraceRelevant": ddg.TraceRelevant,
	} {
		if !keep(&vm.Event{Kind: vm.EvSpawn}) {
			t.Errorf("%s drops EvSpawn", name)
		}
	}
}

// TestPipelineRacyFallback drives two threads hammering the same
// address with no synchronization — batches interleave both threads'
// conflicting accesses, which only the executed order resolves — and
// checks the pipeline still matches inline labels exactly across
// schedules.
func TestPipelineRacyFallback(t *testing.T) {
	text := `
.data 0, 0
    in r10, 0         ; tainted
    spawn r20, r10, child
    movi r3, 0
loop:
    movi r4, 60
    bge r3, r4, done
    store r0, r10, 1  ; racy tainted store
    movi r5, 7
    store r0, r5, 1   ; racy clean store
    load r6, r0, 1    ; racy load
    addi r3, r3, 1
    br loop
done:
    join r20
    load r7, r0, 1
    out r7, 1
    halt
child:
    movi r3, 0
cloop:
    movi r4, 60
    bge r3, r4, cdone
    store r0, r1, 1   ; racy tainted store from child
    load r6, r0, 1
    movi r8, 0
    store r0, r8, 1   ; racy clean store
    addi r3, r3, 1
    br cloop
cdone:
    halt
`
	for seed := uint64(0); seed < 6; seed++ {
		cfg := vm.Config{Seed: seed, Quantum: 5, RandomPreempt: true}
		eng, si, pl, sp := runBoth(t, text, []int64{5}, cfg, Options{BatchEvents: 8})
		if len(sp.Outputs) != len(si.Outputs) {
			t.Fatalf("seed %d: output count diverged", seed)
		}
		for i := range si.Outputs {
			if sp.Outputs[i] != si.Outputs[i] {
				t.Fatalf("seed %d: output[%d] diverged", seed, i)
			}
		}
		if pl.TaintedWords() != eng.TaintedWords() {
			t.Fatalf("seed %d: tainted words %d vs %d", seed, pl.TaintedWords(), eng.TaintedWords())
		}
		if pl.MemTaint(1) != eng.MemTaint(1) {
			t.Fatalf("seed %d: racy address label diverged", seed)
		}
		m := vm.MustNew(isa.MustAssemble("t", text), cfg)
		m.SetInput(0, []int64{5})
		batches, _ := Collect(m, 8)
		if !anyBatchSpansThreads(batches) {
			t.Fatalf("seed %d: no batch holds two threads' events: the run never interleaved", seed)
		}
	}
}

func anyBatchSpansThreads(batches []*vm.Batch) bool {
	for _, b := range batches {
		for _, ev := range b.Events {
			if ev.TID != b.Events[0].TID {
				return true
			}
		}
	}
	return false
}

func TestPipelineIndirectBranchSink(t *testing.T) {
	p := isa.MustAssemble("t", `
.data 0
    in r1, 0
    brr r1
target:
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{int64(p.Labels["target"])})
	pl := New[bool](dift.Bool{}, dift.DefaultPolicy(), Options{})
	sink := &dift.CollectSink[bool]{}
	pl.AddSink(sink)
	if res := Run(m, pl); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if len(sink.Branches) != 1 || !sink.Branches[0] {
		t.Fatalf("indirect branch sink = %v, want [true]", sink.Branches)
	}
}

// TestPipelineConsumeOffline checks the Collect/Consume split used by
// the stage-timing benchmarks produces the same labels as Run.
func TestPipelineConsumeOffline(t *testing.T) {
	prog := isa.MustAssemble("t", `
    in r1, 0
    movi r3, 0
loop:
    movi r4, 100
    bge r3, r4, done
    add r5, r5, r1
    store r3, r5, 0
    addi r3, r3, 1
    br loop
done:
    out r5, 1
    halt
`)
	m := vm.MustNew(prog, vm.Config{})
	m.SetInput(0, []int64{3})
	batches, res := Collect(m, 16)
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if len(batches) == 0 {
		t.Fatal("no batches collected")
	}
	pl := New[bool](dift.Bool{}, dift.DefaultPolicy(), Options{})
	sink := &dift.CollectSink[bool]{}
	pl.AddSink(sink)
	pl.Consume(batches)
	pl.Close()
	if len(sink.Outputs) != 1 || !sink.Outputs[0] {
		t.Fatalf("outputs = %v, want [true]", sink.Outputs)
	}
	if pl.TaintedWords() != 100 {
		t.Fatalf("tainted = %d, want 100", pl.TaintedWords())
	}
}
