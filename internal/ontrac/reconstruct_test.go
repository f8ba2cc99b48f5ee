package ontrac

import (
	"fmt"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// TestStaticReconstructorMatchesRecordingReader: a Reconstructor
// built from the program alone must reconstruct exactly what the
// recording run's own Reader reconstructs, for traces recorded under
// StaticOptions (no learned dictionary to lose).
func TestStaticReconstructorMatchesRecordingReader(t *testing.T) {
	for _, w := range prog.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			w.Cfg.Seed = 11
			w.Cfg.RandomPreempt = true
			if w.Cfg.Quantum == 0 {
				w.Cfg.Quantum = 17
			}
			m := w.NewMachine()
			off := NewOffloaded(w.Prog, StaticOptions(), pipeline.Options{})
			if res := Trace(m, off); res.Failed {
				t.Fatal(res.FailMsg)
			}
			live := off.Reader()
			static := NewStaticReconstructor(w.Prog, StaticOptions()).ReaderOver(off.tr.buf)
			sopts := slicing.Options{FollowControl: true}
			checked := 0
			for _, tid := range off.tr.buf.Threads() {
				crit := off.tr.LastID(tid)
				if crit == 0 {
					continue
				}
				pc, ok := off.tr.buf.NodePC(crit)
				if !ok {
					pc = -1
				}
				crits := []slicing.Criterion{{ID: crit, PC: pc}}
				want := slicing.Backward(live, w.Prog, crits, sopts)
				got := slicing.Backward(static, w.Prog, crits, sopts)
				if fmt.Sprint(want.Lines) != fmt.Sprint(got.Lines) ||
					want.Nodes != got.Nodes || want.Edges != got.Edges {
					t.Fatalf("tid %d: static reconstruction diverged:\nlive   %v (%d/%d)\nstatic %v (%d/%d)",
						tid, want.Lines, want.Nodes, want.Edges, got.Lines, got.Nodes, got.Edges)
				}
				// Reconstruction must actually fire for the comparison to
				// mean anything: the raw source alone yields a smaller
				// closure whenever O1 elided edges on this chain.
				var rawSrc ddg.Source = off.tr.buf
				raw := slicing.Backward(rawSrc, w.Prog, crits, sopts)
				if raw.Edges > want.Edges {
					t.Fatalf("tid %d: raw slice larger than reconstructed", tid)
				}
				checked++
			}
			if checked == 0 {
				t.Skip("no traced instances")
			}
		})
	}
}

// storedPair is a one-record source: every instance stores data
// dependences on two same-thread defs, at PCs 1 and 2, plus one on
// another thread's def at PC 3.
type storedPair struct{}

func (storedPair) Threads() []int              { return []int{0} }
func (storedPair) Window(int) (uint64, uint64) { return 1, 100 }
func (storedPair) NodePC(ddg.ID) (int32, bool) { return 5, true }
func (storedPair) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	yield(ddg.Dep{Use: id, UsePC: 5, Def: ddg.MakeID(0, id.N()-4), DefPC: 1, Kind: ddg.Data})
	yield(ddg.Dep{Use: id, UsePC: 5, Def: ddg.MakeID(0, id.N()-3), DefPC: 2, Kind: ddg.Data})
	yield(ddg.Dep{Use: id, UsePC: 5, Def: ddg.MakeID(1, 7), DefPC: 3, Kind: ddg.Data})
}

// TestDepsOfHintedStoredDefs: stored same-thread defs suppress the O1
// patterns naming their PCs and nothing else — a def stored on another
// thread suppresses nothing — and tracking them allocates nothing.
func TestDepsOfHintedStoredDefs(t *testing.T) {
	r := &Reader{t: &tables{staticByUse: [][]int32{5: {1, 2, 3}}}, src: storedPair{}}
	id := ddg.MakeID(0, 10)
	var got []string
	r.DepsOfHinted(id, 5, func(d ddg.Dep) { got = append(got, fmt.Sprintf("%v@%d", d.Def, d.DefPC)) })
	if want := "[0:6@1 0:7@2 1:7@3 0:8@3]"; fmt.Sprint(got) != want {
		t.Fatalf("DepsOfHinted yielded %v, want %s", got, want)
	}
	yields := 0
	count := func(ddg.Dep) { yields++ }
	if allocs := testing.AllocsPerRun(100, func() { r.DepsOfHinted(id, 5, count) }); allocs != 0 {
		t.Fatalf("DepsOfHinted allocates %v times per call", allocs)
	}
	if yields != 101*4 {
		t.Fatalf("%d yields over 101 calls, want %d", yields, 101*4)
	}
}
