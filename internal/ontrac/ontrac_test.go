package ontrac

import (
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/slicing"
	"scaldift/internal/vm"
)

// runBoth executes prog under both ONTRAC (with opts) and a full
// extractor, returning tracer, full graph, and the machine.
func runBoth(t *testing.T, prog *isa.Program, inputs []int64, opts Options) (*Tracer, *ddg.Full, *vm.Machine) {
	t.Helper()
	m := vm.MustNew(prog, vm.Config{})
	m.SetInput(0, inputs)
	tr := New(prog, opts)
	fullSink := ddg.NewFullSink()
	fullEx := ddg.NewExtractor(prog, fullSink, ddg.ExtractorOpts{ControlDeps: opts.ControlDeps})
	m.AttachTool(tr.Tool())
	m.AttachTool(fullEx)
	if res := m.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	return tr, fullSink.G, m
}

const loopProg = `
    in r1, 0          ; n
    movi r2, 0        ; sum
    movi r3, 0        ; i
loop:
    bge r3, r1, done
    add r4, r2, r3    ; intra-block chain: r4 defined...
    muli r4, r4, 3    ; ...used and redefined...
    add r2, r2, r4    ; ...and used again (O1 food)
    addi r3, r3, 1
    br loop
done:
    out r2, 1
    halt
`

func sliceLines(t *testing.T, src ddg.Source, prog *isa.Program, id ddg.ID, pc int32, ctrl bool) []int {
	t.Helper()
	s := slicing.Backward(src, prog, []slicing.Criterion{{ID: id, PC: pc}},
		slicing.Options{FollowControl: ctrl})
	return s.Lines
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// outCriterion finds the instance id of the final OUT instruction.
func outCriterion(prog *isa.Program, g *ddg.Full) (ddg.ID, int32) {
	var outPC int32 = -1
	for pc, ins := range prog.Instrs {
		if ins.Op == isa.OUT {
			outPC = int32(pc)
		}
	}
	lo, hi := g.Window(0)
	for n := hi; n >= lo; n-- {
		id := ddg.MakeID(0, n)
		if pc, ok := g.NodePC(id); ok && pc == outPC {
			return id, outPC
		}
	}
	return 0, outPC
}

func TestOptimizedSliceMatchesFull(t *testing.T) {
	prog := isa.MustAssemble("loop", loopProg)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"O1", Options{ControlDeps: true, ElideStaticBlockDeps: true}},
		{"O2", Options{ControlDeps: true, TraceDictionary: true}},
		{"O3", Options{ControlDeps: true, ElideRedundantLoads: true}},
		{"O1O2O3", Options{ControlDeps: true, ElideStaticBlockDeps: true,
			TraceDictionary: true, ElideRedundantLoads: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, full, _ := runBoth(t, prog, []int64{10}, tc.opts)
			id, pc := outCriterion(prog, full)
			if id == 0 {
				t.Fatal("criterion not found")
			}
			want := sliceLines(t, full, prog, id, pc, true)
			got := sliceLines(t, tr.Reader(), prog, id, pc, true)
			// O1/O2/O3 are lossless (O2 may over-approximate, never
			// under-approximate): the optimized slice must contain
			// every statement of the exact slice.
			wantSet := map[int]bool{}
			for _, l := range want {
				wantSet[l] = true
			}
			for _, l := range want {
				found := false
				for _, g := range got {
					if g == l {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("optimized slice missing line %d: got %v want %v", l, got, want)
				}
			}
			// And not be wildly larger.
			if len(got) > len(want)+3 {
				t.Fatalf("optimized slice too large: got %v want %v", got, want)
			}
		})
	}
}

func TestOptimizationsReduceBytes(t *testing.T) {
	prog := isa.MustAssemble("loop", loopProg)
	trNone, _, _ := runBoth(t, prog, []int64{2000}, Unoptimized())
	trAll, _, _ := runBoth(t, prog, []int64{2000}, Options{
		ControlDeps: true, ElideStaticBlockDeps: true,
		TraceDictionary: true, ElideRedundantLoads: true,
	})
	none, all := trNone.Stats(), trAll.Stats()
	if bytesPerInstr(none) <= bytesPerInstr(all) {
		t.Fatalf("optimizations did not reduce trace rate: %.2f vs %.2f",
			bytesPerInstr(none), bytesPerInstr(all))
	}
	if all.ElidedO1 == 0 || all.ElidedO2 == 0 {
		t.Fatalf("stats = %+v", all)
	}
	if none.DepsStored != none.DepsSeen {
		t.Fatal("unoptimized tracer should store everything")
	}
}

func TestDictionaryLearnsHotDeps(t *testing.T) {
	prog := isa.MustAssemble("loop", loopProg)
	tr, _, _ := runBoth(t, prog, []int64{100}, Options{TraceDictionary: true})
	st := tr.Stats()
	if st.DictSize == 0 {
		t.Fatal("dictionary stayed empty on a hot loop")
	}
	// After the threshold, nearly every loop iteration's deps are
	// covered: elisions should dominate stores for the loop.
	if st.ElidedO2 < st.DepsStored {
		t.Fatalf("dictionary barely used: %+v", st)
	}
}

func TestRedundantLoadElision(t *testing.T) {
	// A loop that re-loads the same never-rewritten location: all
	// but the first mem dep are redundant.
	prog := isa.MustAssemble("rl", `
.data 0
    movi r5, 7
    store r0, r5, 0   ; define the location so loads have a mem dep
    movi r1, 0
    movi r3, 0
loop:
    load r2, r0, 0
    add r3, r3, r2
    addi r1, r1, 1
    movi r4, 50
    blt r1, r4, loop
    out r3, 1
    halt
`)
	tr, full, _ := runBoth(t, prog, nil, Options{ControlDeps: true, ElideRedundantLoads: true})
	st := tr.Stats()
	if st.ElidedO3 == 0 {
		t.Fatalf("no redundant loads detected: %+v", st)
	}
	// Slice through the SameAs chain still reaches everything.
	id, pc := outCriterion(prog, full)
	want := sliceLines(t, full, prog, id, pc, true)
	got := sliceLines(t, tr.Reader(), prog, id, pc, true)
	if !equalInts(got, want) {
		t.Fatalf("slice through RL chain: got %v want %v", got, want)
	}
}

func TestSelectiveTracingKeepsChains(t *testing.T) {
	// Value flows: input -> helper (untraced) -> target (traced).
	// With T1 on "target", deps inside target must still reach back
	// to definitions made inside helper.
	prog := isa.MustAssemble("sel", `
    br main
.func helper
    addi r2, r1, 5     ; defines r2 from input
    ret
.endfunc
.func target
    addi r3, r2, 1     ; uses r2 (defined in helper)
    out r3, 1
    ret
.endfunc
main:
    in r1, 0
    call helper
    call target
    halt
`)
	tr, full, _ := runBoth(t, prog, []int64{9},
		Options{ControlDeps: false, TraceFuncs: []string{"target"}})
	st := tr.Stats()
	if st.ElidedT1 == 0 {
		t.Fatalf("nothing elided outside target: %+v", st)
	}
	// Find the OUT instance and slice: the helper's addi statement
	// must appear (chain preserved), even though helper wasn't traced.
	id, pc := outCriterion(prog, full)
	got := sliceLines(t, tr.Reader(), prog, id, pc, false)
	helperLine := prog.Instrs[1].Line // addi inside helper
	found := false
	for _, l := range got {
		if l == helperLine {
			found = true
		}
	}
	if !found {
		t.Fatalf("chain broken: slice %v missing helper line %d", got, helperLine)
	}
}

func TestForwardSliceOfInputsFilter(t *testing.T) {
	// Two independent computations; only one touches input.
	prog := isa.MustAssemble("t2", `
    in r1, 0
    movi r5, 0
    movi r6, 0
    movi r7, 0
loop:
    add r5, r5, r6      ; input-independent churn
    addi r6, r6, 1
    movi r8, 200
    blt r6, r8, loop
    addi r2, r1, 3      ; input-affected
    out r2, 1
    out r5, 1
    halt
`)
	tr, _, _ := runBoth(t, prog, []int64{4}, Options{ForwardSliceOfInputs: true})
	st := tr.Stats()
	if st.ElidedT2 == 0 {
		t.Fatalf("T2 elided nothing: %+v", st)
	}
	// The input-affected dep (addi r2,r1) must be stored.
	if st.DepsStored == 0 {
		t.Fatal("T2 dropped everything including input flows")
	}
	// The stored fraction should be small: the churn dominates.
	if st.DepsStored*4 > st.DepsSeen {
		t.Fatalf("T2 stored too much: %+v", st)
	}
}

func TestCircularBufferWindow(t *testing.T) {
	prog := isa.MustAssemble("loop", loopProg)
	tr, _, _ := runBoth(t, prog, []int64{20000}, Options{
		ControlDeps: true, BufferBytes: 8 * 1024,
	})
	buf := tr.buf
	lo, hi := buf.Window(0) // lo > 1: the small buffer evicted
	if lo <= 1 || hi <= lo {
		t.Fatalf("window = [%d,%d]", lo, hi)
	}
	// Slicing from the newest record works; from before the window it
	// reports truncation.
	id, pc := ddg.MakeID(0, hi), int32(0)
	if p, ok := buf.NodePC(id); ok {
		pc = p
	}
	s := slicing.Backward(tr.Reader(), prog, []slicing.Criterion{{ID: id, PC: pc}},
		slicing.Options{FollowControl: true})
	if s.Nodes == 0 {
		t.Fatal("empty slice from newest record")
	}
}

// bytesPerInstr is the headline trace-rate metric.
func bytesPerInstr(s Stats) float64 {
	return float64(s.BytesWritten) / float64(s.Instrs)
}

func TestStatsBytesPerInstr(t *testing.T) {
	prog := isa.MustAssemble("loop", loopProg)
	tr, _, _ := runBoth(t, prog, []int64{1000}, AllOptimizations())
	st := tr.Stats()
	if st.Instrs == 0 || st.BytesWritten == 0 {
		t.Fatalf("stats = %+v", st)
	}
	bpi := bytesPerInstr(st)
	if bpi <= 0 || bpi > 16 {
		t.Fatalf("bytes/instr = %.2f out of plausible range", bpi)
	}
}
