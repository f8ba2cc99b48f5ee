package query

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// The reverse-index cache's correctness edges. Every server here runs
// with the result cache off, so each forward query reaches the index
// path and the reverse_index_* counters tell which way it went.

var noResultCache = ServerOptions{ResultCacheEntries: -1}

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
	cl, id, reg, _ := newService(t, w, false, noResultCache)
	fresh, freshID, _, _ := newService(t, w, true, noResultCache)
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
// and swaps the reader, dropping the index; the next forward query
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
	cl, id, reg, _ := newService(t, w, true, noResultCache)
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
			tr.rmu.Lock()
			tr.revs = new(revCache)
			tr.rmu.Unlock()
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
