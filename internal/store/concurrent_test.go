package store

import (
	"fmt"
	"sync"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// TestConcurrentReaderStress hammers ONE reopened store with many
// simultaneous slice queries — the query service's steady state. The
// reader's chunk cache is kept tiny so goroutines constantly miss,
// evict, and race on the same chunks, exercising the
// decode-outside-the-lock path; every query's result is held to the
// sequentially computed expectation. Two more readers over the same
// store share one cache whose budget holds a few chunks, so their
// queries also evict each other's chunks and fill behind each other's
// evictions. Run under -race by the CI test job.
func TestConcurrentReaderStress(t *testing.T) {
	w := prog.PSum(4, 2000, 7)
	_, r := runSpilled(t, w, ontrac.Unoptimized(), 1)
	sopts := slicing.Options{FollowControl: true}

	// Sequential ground truth per thread, computed before the storm.
	type expectation struct {
		tid      int
		crit     slicing.Criterion
		start    ddg.ID
		backward *slicing.Slice
		forward  *slicing.Slice
	}
	var exps []expectation
	for _, tid := range r.Threads() {
		lo, hi := r.Window(tid)
		if lo == 0 {
			continue
		}
		pc, ok := r.NodePC(ddg.MakeID(tid, hi))
		if !ok {
			pc = -1
		}
		e := expectation{
			tid:   tid,
			crit:  slicing.Criterion{ID: ddg.MakeID(tid, hi), PC: pc},
			start: ddg.MakeID(tid, lo),
		}
		e.backward = slicing.Backward(r, w.Prog, []slicing.Criterion{e.crit}, sopts)
		e.forward = slicing.Forward(r, w.Prog, []ddg.ID{e.start}, sopts)
		exps = append(exps, e)
	}
	if len(exps) < 2 {
		t.Fatal("need a multi-thread trace for a meaningful stress test")
	}

	shared := NewChunkCache(48 << 10)
	readers := []*Reader{r}
	for i := 0; i < 2; i++ {
		ri, err := Open(r.dir, ReaderOptions{Cache: shared})
		if err != nil {
			t.Fatal(err)
		}
		defer ri.Close()
		readers = append(readers, ri)
	}

	const goroutines = 9
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := readers[gi%len(readers)]
			for qi, e := range exps {
				check := func(kind string, got *slicing.Slice, want *slicing.Slice) bool {
					if fmt.Sprint(got.Lines) != fmt.Sprint(want.Lines) ||
						got.Nodes != want.Nodes || got.Edges != want.Edges {
						errc <- fmt.Errorf("g%d tid %d: concurrent %s diverged: %d/%d nodes, %d/%d edges",
							gi, e.tid, kind, got.Nodes, want.Nodes, got.Edges, want.Edges)
						return false
					}
					return true
				}
				// Rotate query shapes so sequential, parallel, and
				// budgeted traversals overlap on the same chunks.
				switch (gi + qi) % 4 {
				case 0:
					if !check("Backward", slicing.Backward(r, w.Prog, []slicing.Criterion{e.crit}, sopts), e.backward) {
						return
					}
				case 1:
					if !check("ParallelBackward", slicing.ParallelBackward(r, w.Prog, []slicing.Criterion{e.crit}, sopts, 4), e.backward) {
						return
					}
				case 2:
					if !check("ParallelForward", slicing.ParallelForward(r, w.Prog, []ddg.ID{e.start}, sopts, 4), e.forward) {
						return
					}
				case 3:
					// A roomy budget must not change results; its
					// accounting races with every other query here.
					b := NewBudget(1 << 20)
					if !check("budgeted Backward", slicing.Backward(r.Budgeted(b), w.Prog, []slicing.Criterion{e.crit}, sopts), e.backward) {
						return
					}
					if b.Exhausted() {
						errc <- fmt.Errorf("g%d: roomy budget reported exhausted", gi)
						return
					}
				}
			}
			// One starved query per goroutine: budget accounting under
			// contention, result discarded (a tiny budget makes the
			// slice an under-approximation by design).
			b := NewBudget(1)
			sl := slicing.Backward(r.Budgeted(b), w.Prog, []slicing.Criterion{exps[0].crit}, sopts)
			if sl.Nodes > exps[0].backward.Nodes {
				errc <- fmt.Errorf("g%d: budgeted slice larger than unbudgeted", gi)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for _, r := range readers {
		if err := r.Err(); err != nil {
			t.Fatalf("reader surfaced I/O error under concurrency: %v", err)
		}
	}
	if st := shared.Stats(); st.Evictions == 0 || st.Bytes > st.Budget {
		t.Fatalf("shared cache: %d evictions, %d of %d bytes resident; want evictions within the budget", st.Evictions, st.Bytes, st.Budget)
	}
}

// TestBudgetExhaustion pins the budget contract on a cold reader:
// a one-load budget cuts the traversal short and latches Exhausted;
// an unlimited budget (and a nil one) reproduces the full slice.
func TestBudgetExhaustion(t *testing.T) {
	w := prog.Compress(1500, 1)
	_, r := runSpilled(t, w, ontrac.Unoptimized(), 0)
	tid := r.Threads()[0]
	_, hi := r.Window(tid)
	pc, _ := r.NodePC(ddg.MakeID(tid, hi))
	crits := []slicing.Criterion{{ID: ddg.MakeID(tid, hi), PC: pc}}
	sopts := slicing.Options{FollowControl: true}
	full := slicing.Backward(r, w.Prog, crits, sopts)
	if r.Chunks() < 3 {
		t.Fatalf("trace too small (%d chunks) to exhaust a budget", r.Chunks())
	}

	// Cold reader so cache hits cannot mask the budget.
	r2, err := Open(r.dir, ReaderOptions{Cache: NewChunkCache(16 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBudget(1)
	starved := slicing.Backward(r2.Budgeted(b), w.Prog, crits, sopts)
	if !b.Exhausted() {
		t.Fatal("one-load budget never exhausted")
	}
	if starved.Nodes >= full.Nodes {
		t.Fatalf("starved slice visited %d nodes, full %d", starved.Nodes, full.Nodes)
	}

	unlimited := NewBudget(0)
	again := slicing.Backward(r2.Budgeted(unlimited), w.Prog, crits, sopts)
	if fmt.Sprint(again.Lines) != fmt.Sprint(full.Lines) || again.Nodes != full.Nodes || again.Edges != full.Edges {
		t.Fatal("unlimited budget diverged from direct reader")
	}
	if unlimited.Exhausted() {
		t.Fatal("unlimited budget reported exhausted")
	}
	if unlimited.ChunkLoads() == 0 {
		t.Fatal("unlimited budget counted no loads")
	}
}
