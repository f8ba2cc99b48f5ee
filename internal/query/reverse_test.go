package query

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// The reverse-index cache's correctness edges. Every server here runs
// with the result cache off, so each forward query reaches the index
// path and the reverse_index_* counters tell which way it went. An
// index is charged to the chunk cache, so the services that must keep
// one run with a cache it fits in.

var noResultCache = ServerOptions{ResultCacheEntries: -1}

// roomyCache holds every test trace's reverse index (67–360 KB).
const roomyCache = 1 << 20

// revCounters reads the reverse-index counters off /v1/stats.
func revCounters(t *testing.T, cl *Client) (builds, hits, bytes int64) {
	t.Helper()
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.ReverseIndexBuilds, st.ReverseIndexHits, st.ReverseIndexBytes
}

// forward serves one forward slice from (tid, n) with control edges.
func forward(t *testing.T, cl *Client, id string, tid int, n uint64, budget int64) *SliceResponse {
	t.Helper()
	resp, err := cl.Slice(context.Background(), &SliceRequest{
		Trace: id, Direction: DirForward,
		Criteria:         []Criterion{{TID: tid, N: n}},
		FollowControl:    true,
		BudgetChunkLoads: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func sameAnswer(a, b *SliceResponse) bool {
	return a.Nodes == b.Nodes && a.Edges == b.Edges &&
		reflect.DeepEqual(a.PCs, b.PCs) && reflect.DeepEqual(a.Lines, b.Lines)
}

// TestReverseIndexRebuiltOnAttach: AttachProgram changes the edge set
// reconstruction yields without bumping the generation, so the next
// forward query builds a new index, and its answer equals a server
// that had the program attached from the start.
func TestReverseIndexRebuiltOnAttach(t *testing.T) {
	w := prog.Compress(300, 1)
	cl, id, reg, _ := newServiceCache(t, w, false, noResultCache, roomyCache)
	fresh, freshID, _, _ := newServiceCache(t, w, true, noResultCache, roomyCache)
	tr, _ := reg.Get(id)
	lo, _ := tr.Window(0)

	before := forward(t, cl, id, 0, lo, 0)
	if b, h, _ := revCounters(t, cl); b != 1 || h != 0 {
		t.Fatalf("first forward query: %d builds, %d hits; want 1, 0", b, h)
	}
	if err := reg.AttachProgram(id, w.Prog, ontrac.StaticOptions()); err != nil {
		t.Fatal(err)
	}
	after := forward(t, cl, id, 0, lo, 0)
	if b, h, _ := revCounters(t, cl); b != 2 || h != 0 {
		t.Fatalf("forward after attach: %d builds, %d hits; want 2, 0", b, h)
	}
	if want := forward(t, fresh, freshID, 0, lo, 0); !sameAnswer(after, want) {
		t.Fatalf("after attach: %d nodes, %d edges, lines %v; attached from the start: %d, %d, %v",
			after.Nodes, after.Edges, after.Lines, want.Nodes, want.Edges, want.Lines)
	}
	if len(after.Lines) == 0 || len(before.Lines) != 0 {
		t.Fatalf("lines before/after attach: %v / %v", before.Lines, after.Lines)
	}
	if again := forward(t, cl, id, 0, lo, 0); !sameAnswer(again, after) {
		t.Fatal("repeat from the cached index diverged")
	}
	if b, h, _ := revCounters(t, cl); b != 2 || h != 1 {
		t.Fatalf("repeat after attach: %d builds, %d hits; want 2, 1", b, h)
	}
}

// TestReverseIndexLiveTrace: a live trace grows between polls without
// a generation bump, so every forward query builds its own index and
// sees the uses the last poll landed; nothing is cached.
func TestReverseIndexLiveTrace(t *testing.T) {
	root := t.TempDir()
	wr, err := store.Create(store.Options{Dir: filepath.Join(root, "hot"), SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	c := ddg.NewCompactSized(0, 32)
	c.SetSpill(wr)
	appendChain(c, 0, 1, 120)
	c.Flush()

	reg := NewRegistry([]string{root}, RegistryOptions{Live: true})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewServer(reg, noResultCache).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())

	if resp := forward(t, cl, "hot", 0, 1, 0); !resp.Live || resp.Nodes != 120 {
		t.Fatalf("live forward from 0:1: live=%v, %d nodes; want the 120-instance chain", resp.Live, resp.Nodes)
	}
	appendChain(c, 0, 121, 250)
	c.Flush()
	if _, err := reg.PollLive(); err != nil {
		t.Fatal(err)
	}
	if resp := forward(t, cl, "hot", 0, 1, 0); resp.Nodes != 250 {
		t.Fatalf("forward after the poll landed 121..250: %d nodes, want 250", resp.Nodes)
	}
	if b, h, bytes := revCounters(t, cl); b != 2 || h != 0 || bytes != 0 {
		t.Fatalf("live trace: %d builds, %d hits, %d cached bytes; want 2, 0, 0", b, h, bytes)
	}
}

// TestReverseIndexRebuiltOnTrim: a retention trim bumps the generation
// and the reader's poll drops the index; the next forward query
// builds one over the trimmed store and answers like a direct
// ParallelForward over a freshly opened reader.
func TestReverseIndexRebuiltOnTrim(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "big")
	bigClosedStore(t, dir)
	reg := NewRegistry([]string{root}, RegistryOptions{})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewServer(reg, noResultCache).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())

	forward(t, cl, "big", 0, 500, 0)
	forward(t, cl, "big", 0, 550, 0)
	if b, h, bytes := revCounters(t, cl); b != 1 || h != 1 || bytes == 0 {
		t.Fatalf("two forward queries: %d builds, %d hits, %d bytes; want 1, 1, > 0", b, h, bytes)
	}
	if removed, err := reg.TrimTrace("big", store.Retention{MaxBytes: 4 << 10}); err != nil || removed == 0 {
		t.Fatalf("trim: removed %d, %v", removed, err)
	}
	if _, _, bytes := revCounters(t, cl); bytes != 0 {
		t.Fatalf("trim kept %d bytes of index alive", bytes)
	}
	got := forward(t, cl, "big", 0, 580, 0)
	if b, h, _ := revCounters(t, cl); b != 2 || h != 1 {
		t.Fatalf("forward after trim: %d builds, %d hits; want 2, 1", b, h)
	}
	r, err := store.Open(dir, store.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	direct := slicing.ParallelForward(r, nil, []ddg.ID{ddg.MakeID(0, 580)}, slicing.Options{FollowControl: true}, 4)
	if err := sameSlice(got, direct); err != nil {
		t.Fatalf("after trim: %v", err)
	}
	if got.Nodes != 21 {
		t.Fatalf("forward from 0:580 on the 600-chain reached %d nodes, want 21", got.Nodes)
	}
}

// TestReverseIndexBudget: a budget that runs out mid-build answers
// budget_exhausted and caches nothing; the next query with room builds
// and caches the index, and the one after walks it.
func TestReverseIndexBudget(t *testing.T) {
	w := prog.Compress(1500, 1)
	cl, id, reg, _ := newServiceCache(t, w, true, noResultCache, roomyCache)
	tr, _ := reg.Get(id)
	lo, _ := tr.Window(0)

	starved := forward(t, cl, id, 0, lo, 2)
	if !starved.BudgetExhausted {
		t.Fatalf("a 2-chunk budget built the whole index: %d chunk loads", starved.ChunkLoads)
	}
	if b, h, bytes := revCounters(t, cl); b != 1 || h != 0 || bytes != 0 {
		t.Fatalf("starved build: %d builds, %d hits, %d cached bytes; want 1, 0, 0", b, h, bytes)
	}
	full := forward(t, cl, id, 0, lo, 1<<20)
	if full.BudgetExhausted || full.Nodes <= starved.Nodes {
		t.Fatalf("roomy budget: exhausted=%v, %d nodes (starved %d)", full.BudgetExhausted, full.Nodes, starved.Nodes)
	}
	b, h, bytes := revCounters(t, cl)
	if b != 2 || h != 0 || bytes == 0 {
		t.Fatalf("roomy build: %d builds, %d hits, %d cached bytes; want 2, 0, > 0", b, h, bytes)
	}
	// The cached index costs the next query no chunk loads beyond its
	// criterion's own record, so even the starving budget now suffices.
	again := forward(t, cl, id, 0, lo, 2)
	if again.BudgetExhausted || !sameAnswer(again, full) {
		t.Fatalf("from the cached index: exhausted=%v, %d nodes; want %d", again.BudgetExhausted, again.Nodes, full.Nodes)
	}
	if b, h, _ := revCounters(t, cl); b != 2 || h != 1 {
		t.Fatalf("cached walk: %d builds, %d hits; want 2, 1", b, h)
	}
}

// TestReverseIndexSharesChunkBudget: a cached reverse index is charged
// to the chunk cache. Over a budget smaller than the index (12 KB for
// the 600-chain) every forward query rebuilds it and none is kept. Under
// one it fits, it counts in chunk_cache_bytes, chunk churn evicts it
// like a chunk, nothing keeps it reachable after, and the rebuild
// answers identically; TrimTrace, Delete and Close each give its bytes
// back.
func TestReverseIndexSharesChunkBudget(t *testing.T) {
	serve := func(t *testing.T, budget int64, traces ...string) (*Client, *Registry) {
		t.Helper()
		root := t.TempDir()
		for _, id := range traces {
			bigClosedStore(t, filepath.Join(root, id))
		}
		reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: budget})
		if _, err := reg.Refresh(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		srv := httptest.NewServer(NewServer(reg, noResultCache).Handler())
		t.Cleanup(srv.Close)
		return NewClient(srv.URL, srv.Client()), reg
	}
	// cacheBytes reads chunk_cache_bytes and holds it to the budget.
	cacheBytes := func(t *testing.T, cl *Client) int64 {
		t.Helper()
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.ChunkCacheBytes > st.ChunkCacheBudgetBytes {
			t.Fatalf("chunk_cache_bytes %d over the %d budget", st.ChunkCacheBytes, st.ChunkCacheBudgetBytes)
		}
		return st.ChunkCacheBytes
	}

	t.Run("OverBudget", func(t *testing.T) {
		cl, _ := serve(t, 8<<10, "big")
		first := forward(t, cl, "big", 0, 500, 0)
		again := forward(t, cl, "big", 0, 500, 0)
		if !sameAnswer(first, again) {
			t.Fatal("the rebuilt index answered differently")
		}
		if b, h, bytes := revCounters(t, cl); b != 2 || h != 0 || bytes != 0 {
			t.Fatalf("index over the budget: %d builds, %d hits, %d cached bytes; want 2, 0, 0", b, h, bytes)
		}
		cacheBytes(t, cl)
	})

	t.Run("Evicted", func(t *testing.T) {
		cl, reg := serve(t, 16<<10, "a", "b")
		ta, _ := reg.Get("a")
		tb, _ := reg.Get("b")
		first := forward(t, cl, "a", 0, 500, 0)
		_, _, index := revCounters(t, cl)
		if index == 0 {
			t.Fatal("an index that fits the budget was not cached")
		}
		if got := cacheBytes(t, cl); got < index {
			t.Fatalf("chunk_cache_bytes %d does not count the %d-byte index", got, index)
		}
		gone := weakIndex(ta)
		warm(tb.reader) // b's chunks push out everything admitted before them
		if _, _, bytes := revCounters(t, cl); bytes != 0 {
			t.Fatalf("chunk churn left %d bytes of index cached", bytes)
		}
		runtime.GC()
		if gone.Value() != nil {
			t.Fatal("the evicted index is still reachable")
		}
		again := forward(t, cl, "a", 0, 500, 0)
		if !sameAnswer(first, again) {
			t.Fatal("the rebuilt index answered differently")
		}
		if b, h, _ := revCounters(t, cl); b != 2 || h != 0 {
			t.Fatalf("forward after eviction: %d builds, %d hits; want 2, 0", b, h)
		}

		// Each release path gives the index's bytes back.
		gaveBack := func(t *testing.T, what string, do func()) {
			t.Helper()
			_, _, index := revCounters(t, cl)
			before := cacheBytes(t, cl)
			do()
			if _, _, bytes := revCounters(t, cl); bytes != 0 {
				t.Fatalf("%s kept %d bytes of index cached", what, bytes)
			}
			if after := cacheBytes(t, cl); index == 0 || after > before-index {
				t.Fatalf("%s: chunk_cache_bytes %d → %d; want the %d-byte index gone", what, before, after, index)
			}
		}
		gaveBack(t, "TrimTrace", func() {
			if removed, err := reg.TrimTrace("a", store.Retention{MaxBytes: 4 << 10}); err != nil || removed == 0 {
				t.Fatalf("trim: removed %d, %v", removed, err)
			}
		})
		forward(t, cl, "a", 0, 580, 0)
		gaveBack(t, "Delete", func() {
			if err := reg.Delete("a", false); err != nil {
				t.Fatal(err)
			}
		})
		forward(t, cl, "b", 0, 580, 0)
		gaveBack(t, "Close", func() { reg.Close() })
		if got := cacheBytes(t, cl); got != 0 {
			t.Fatalf("%d bytes resident after Close", got)
		}
	})
}

// TestReverseIndexConcurrentChurn: forward and backward queries on two
// traces run at once over a cache that holds one index and a few
// chunks, while a trim prunes one trace in place and the registry
// closes at the end. Holds, chunk admissions, evictions and the trim's
// release race each other; every forward answer stays exact and the
// cache ends empty within its budget.
func TestReverseIndexConcurrentChurn(t *testing.T) {
	const budget = 16 << 10
	root := t.TempDir()
	for _, id := range []string{"a", "b"} {
		bigClosedStore(t, filepath.Join(root, id))
	}
	reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: budget})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, ServerOptions{ResultCacheEntries: -1, MaxConcurrent: 8}).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := []string{"a", "b"}[(g+i)%2]
				n := uint64(580 + (g*7+i)%21) // above the trim floor
				dir := []string{DirForward, DirBackward}[i%3/2]
				resp, err := cl.Slice(context.Background(), &SliceRequest{Trace: id, Direction: dir,
					Criteria: []Criterion{{TID: 0, N: n}}, FollowControl: true})
				if err != nil {
					t.Error(err)
					return
				}
				if dir == DirForward && resp.Nodes != int(601-n) {
					t.Errorf("forward from %s 0:%d reached %d nodes, want %d", id, n, resp.Nodes, 601-n)
				}
			}
		}()
	}
	if removed, err := reg.TrimTrace("a", store.Retention{MaxBytes: 4 << 10}); err != nil || removed == 0 {
		t.Errorf("trim: removed %d, %v", removed, err)
	}
	wg.Wait()
	if st := reg.ChunkCacheStats(); st.Bytes > budget || st.Evictions == 0 {
		t.Fatalf("cache %+v: want evictions within the %d budget", st, budget)
	}
	reg.Close()
	if st := reg.ChunkCacheStats(); st.Bytes != 0 || reg.ReverseIndexBytes() != 0 {
		t.Fatalf("%d bytes resident, %d of them index, after Close", st.Bytes, reg.ReverseIndexBytes())
	}
}

// weakIndex returns a weak pointer to t's cached raw-record index.
func weakIndex(t *Trace) weak.Pointer[slicing.Reverse] {
	t.revs.mu.Lock()
	defer t.revs.mu.Unlock()
	return weak.Make(t.revs.slots[0].rev)
}

// forwardBenchService serves a closed 4-thread, 20 000-instance chain
// trace with the result cache off and returns the client, the trace
// and the forward request the benchmarks repeat.
func forwardBenchService(b *testing.B) (*Client, *Trace, *SliceRequest) {
	root := b.TempDir()
	wr, err := store.Create(store.Options{Dir: filepath.Join(root, "chains")})
	if err != nil {
		b.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 64)
	c.SetSpill(wr)
	for tid := 0; tid < 4; tid++ {
		appendChain(c, tid, 1, 5000)
	}
	c.Flush()
	if err := wr.Close(); err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry([]string{root}, RegistryOptions{})
	if _, err := reg.Refresh(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(NewServer(reg, noResultCache).Handler())
	b.Cleanup(srv.Close)
	tr, _ := reg.Get("chains")
	return NewClient(srv.URL, srv.Client()), tr, &SliceRequest{Trace: "chains", Direction: DirForward,
		Criteria: []Criterion{{TID: 2, N: 4000}}, FollowControl: true}
}

// benchmarkServedForward times served forward queries; cold drops the
// trace's cached reverse index before each one, so every query pays
// the whole-trace build a forward query paid before the cache.
func benchmarkServedForward(b *testing.B, cold bool) {
	cl, tr, req := forwardBenchService(b)
	ctx := context.Background()
	if _, err := cl.Slice(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			for i := range tr.revs.slots {
				tr.revs.mu.Lock()
				e := tr.revs.slots[i]
				tr.revs.mu.Unlock()
				if e != nil {
					e.release()
				}
			}
		}
		resp, err := cl.Slice(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Nodes != 1001 {
			b.Fatalf("forward closure %d nodes, want 1001", resp.Nodes)
		}
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "queries/s")
	}
}

func BenchmarkServedForwardCold(b *testing.B) { benchmarkServedForward(b, true) }
func BenchmarkServedForwardWarm(b *testing.B) { benchmarkServedForward(b, false) }
