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
			static := NewStaticReconstructor(w.Prog, StaticOptions()).ReaderOver(off.Buffer())
			sopts := slicing.Options{FollowControl: true}
			checked := 0
			for _, tid := range off.Buffer().Threads() {
				crit := off.LastID(tid)
				if crit == 0 {
					continue
				}
				pc, ok := off.Buffer().NodePC(crit)
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
				var rawSrc ddg.Source = off.Buffer()
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
