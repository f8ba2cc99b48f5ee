package query

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// The service differential suite: every prog.All() workload is
// recorded to disk, registered, and served over real HTTP; every
// served backward/forward slice must be identical — PCs, Lines,
// Nodes, Edges — to the direct in-process ParallelBackward /
// ParallelForward result over an independently reopened reader with
// the same O1 reconstruction composed. Provenance answers are held
// to the same recomputation. Forward queries on one trace share one
// reverse index: the first builds it, every later one walks the
// cached copy, and each answer still equals the direct one.

// recordTrace runs w offloaded with a randomized schedule, spilling
// into dir (created under root).
func recordTrace(t *testing.T, root string, w *prog.Workload, opts ontrac.Options, seed uint64) string {
	t.Helper()
	w.Cfg.Seed = seed
	w.Cfg.RandomPreempt = true
	if w.Cfg.Quantum == 0 {
		w.Cfg.Quantum = 11
	}
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", w.Name, seed))
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine()
	off := ontrac.NewOffloaded(w.Prog, opts, pipeline.Options{})
	off.SpillTo(wr)
	if res := ontrac.Trace(m, off); res.Failed {
		t.Fatalf("%s: run failed: %s", w.Name, res.FailMsg)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func sameSlice(resp *SliceResponse, direct *slicing.Slice) error {
	if fmt.Sprint(resp.Lines) != fmt.Sprint(direct.Lines) {
		return fmt.Errorf("lines diverged:\nserved %v\ndirect %v", resp.Lines, direct.Lines)
	}
	if resp.Nodes != direct.Nodes || resp.Edges != direct.Edges {
		return fmt.Errorf("traversal diverged: served %d/%d, direct %d/%d",
			resp.Nodes, resp.Edges, direct.Nodes, direct.Edges)
	}
	directPCs := make([]int32, 0, len(direct.PCs))
	for pc := range direct.PCs {
		directPCs = append(directPCs, pc)
	}
	got := append([]int32(nil), resp.PCs...)
	if fmt.Sprint(sortedPCs(direct.PCs)) != fmt.Sprint(got) {
		return fmt.Errorf("PC sets diverged: served %v, direct %v (direct count %d)", got, sortedPCs(direct.PCs), len(directPCs))
	}
	if resp.TruncatedAtWindow != direct.TruncatedAtWindow {
		return fmt.Errorf("truncation flags diverged: served %v, direct %v",
			resp.TruncatedAtWindow, direct.TruncatedAtWindow)
	}
	return nil
}

func TestServedSlicesMatchDirect(t *testing.T) {
	opts := ontrac.StaticOptions()
	root := t.TempDir()
	type entry struct {
		w   *prog.Workload
		dir string
	}
	var entries []entry
	for _, w := range prog.All() {
		entries = append(entries, entry{w: w, dir: recordTrace(t, root, w, opts, 3)})
	}

	reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: roomyCache})
	added, err := reg.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != len(entries) {
		t.Fatalf("registered %d traces, recorded %d", len(added), len(entries))
	}
	for _, e := range entries {
		id := filepath.Base(e.dir)
		if err := reg.AttachProgram(id, e.w.Prog, opts); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(reg, ServerOptions{MaxConcurrent: 4}).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	revCounts := func(t *testing.T) (builds, hits int64) {
		b, h, _ := revCounters(t, cl)
		return b, h
	}

	for _, e := range entries {
		e := e
		t.Run(e.w.Name, func(t *testing.T) {
			id := filepath.Base(e.dir)
			// The direct side: an independent reader over the same
			// directory, same reconstruction composed in-process.
			r, err := store.Open(e.dir, store.ReaderOptions{Cache: store.NewChunkCache(64 << 10)})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			src := ontrac.NewStaticReconstructor(e.w.Prog, opts).ReaderOver(r)
			sopts := slicing.Options{FollowControl: true}

			var allCrits []Criterion
			var directCrits []slicing.Criterion
			var directStarts []ddg.ID
			checked, forwards := 0, int64(0)
			builds0, hits0 := revCounts(t)
			for _, tid := range r.Threads() {
				lo, hi := r.Window(tid)
				if lo == 0 {
					continue
				}
				crit := ddg.MakeID(tid, hi)
				pc, ok := r.NodePC(crit)
				if !ok {
					pc = -1
				}
				directCrit := []slicing.Criterion{{ID: crit, PC: pc}}
				start := ddg.MakeID(tid, lo)

				// Backward: served (explicit criterion) vs direct
				// ParallelBackward over the reconstructing source.
				resp, err := cl.Slice(ctx, &SliceRequest{
					Trace: id, Direction: DirBackward,
					Criteria:      []Criterion{{TID: tid, N: hi}},
					FollowControl: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				direct := slicing.ParallelBackward(src, e.w.Prog, directCrit, sopts, 4)
				if err := sameSlice(resp, direct); err != nil {
					t.Fatalf("tid %d backward: %v", tid, err)
				}
				// And the sequential root: ParallelBackward is pinned to
				// Backward elsewhere, but anchor the whole chain here too.
				seq := slicing.Backward(src, e.w.Prog, directCrit, sopts)
				if err := sameSlice(resp, seq); err != nil {
					t.Fatalf("tid %d backward vs sequential: %v", tid, err)
				}

				// Forward: served vs direct ParallelForward.
				fresp, err := cl.Slice(ctx, &SliceRequest{
					Trace: id, Direction: DirForward,
					Criteria:      []Criterion{{TID: tid, N: lo}},
					FollowControl: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				fdirect := slicing.ParallelForward(src, e.w.Prog, []ddg.ID{start}, sopts, 4)
				if err := sameSlice(fresp, fdirect); err != nil {
					t.Fatalf("tid %d forward: %v", tid, err)
				}
				if !fresp.Cached {
					forwards++
				}

				allCrits = append(allCrits, Criterion{TID: tid, N: hi})
				directCrits = append(directCrits, directCrit[0])
				directStarts = append(directStarts, start)
				if resp.Nodes > 0 {
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("every served slice was empty — vacuous comparison")
			}

			// Multi-criteria fan-out, both directions.
			resp, err := cl.Slice(ctx, &SliceRequest{
				Trace: id, Direction: DirBackward, Criteria: allCrits,
				FollowControl: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSlice(resp, slicing.ParallelBackward(src, e.w.Prog, directCrits, sopts, 4)); err != nil {
				t.Fatalf("multi backward: %v", err)
			}
			var fwdCrits []Criterion
			for _, start := range directStarts {
				fwdCrits = append(fwdCrits, Criterion{TID: start.TID(), N: start.N()})
			}
			fresp, err := cl.Slice(ctx, &SliceRequest{
				Trace: id, Direction: DirForward, Criteria: fwdCrits,
				FollowControl: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSlice(fresp, slicing.ParallelForward(src, e.w.Prog, directStarts, sopts, 4)); err != nil {
				t.Fatalf("multi forward: %v", err)
			}
			if !fresp.Cached {
				forwards++ // a one-thread trace repeats the per-thread query
			}
			if b, h := revCounts(t); b-builds0 != 1 || h-hits0 != forwards-1 {
				t.Fatalf("%d forward queries built %d reverse indexes and hit %d, want 1 and %d",
					forwards, b-builds0, h-hits0, forwards-1)
			}

			// Provenance: served input set vs direct recomputation
			// (backward data-only slice filtered to IN instructions).
			prov, err := cl.Provenance(ctx, &ProvenanceRequest{
				Trace: id, Criteria: allCrits,
			})
			if err != nil {
				t.Fatal(err)
			}
			dataSlice := slicing.ParallelBackward(src, e.w.Prog, directCrits, slicing.Options{}, 4)
			var wantPCs []int32
			for pc := range dataSlice.PCs {
				if int(pc) < len(e.w.Prog.Instrs) && e.w.Prog.Instrs[pc].Op == isa.IN {
					wantPCs = append(wantPCs, pc)
				}
			}
			want := make(map[int32]bool, len(wantPCs))
			for _, pc := range wantPCs {
				want[pc] = true
			}
			if fmt.Sprint(prov.InputPCs) != fmt.Sprint(sortedPCs(want)) {
				t.Fatalf("provenance diverged: served %v, direct %v", prov.InputPCs, sortedPCs(want))
			}
			if err := sameSlice(&prov.Slice, dataSlice); err != nil {
				t.Fatalf("provenance slice: %v", err)
			}
			// Workloads read input: criteria at every thread's end must
			// reach at least one IN statement on input-driven programs.
			if len(prov.InputPCs) == 0 && len(e.w.Inputs) > 0 && e.w.Name != "sieve" {
				t.Logf("note: %s provenance found no input statements", e.w.Name)
			}
		})
	}
}
