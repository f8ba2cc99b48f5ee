package query

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/store"
)

// depsOf materializes s.DepsOf.
func depsOf(s ddg.Source, id ddg.ID) []ddg.Dep {
	var out []ddg.Dep
	s.DepsOf(id, func(d ddg.Dep) { out = append(out, d) })
	return out
}

// TestServerChunkCacheStats: /v1/stats reports the decoded-chunk cache
// the registry's readers share. A repeated query the result cache does
// not answer is served from resident chunks (hits rise), the resident
// bytes never exceed the budget, and Registry.Close releases all of
// them.
func TestServerChunkCacheStats(t *testing.T) {
	const budget = 64 << 10
	root := t.TempDir()
	dir := recordTrace(t, root, prog.Compress(2000, 1), ontrac.StaticOptions(), 1)
	reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: budget})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, noResultCache).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	stats := func() *StatsResponse {
		t.Helper()
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.ChunkCacheBudgetBytes != budget {
			t.Fatalf("chunk_cache_budget_bytes %d, want %d", st.ChunkCacheBudgetBytes, budget)
		}
		if st.ChunkCacheBytes > budget {
			t.Fatalf("chunk_cache_bytes %d over the %d budget", st.ChunkCacheBytes, budget)
		}
		return st
	}

	req := &SliceRequest{Trace: filepath.Base(dir), Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true}
	var hits []int64
	for i := 0; i < 2; i++ {
		resp, err := cl.Slice(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || resp.Nodes < 100 {
			t.Fatalf("query %d: cached=%v, %d nodes; want a computed slice of some size", i, resp.Cached, resp.Nodes)
		}
		st := stats()
		if st.ChunkCacheBytes == 0 || st.ChunkCacheMisses == 0 {
			t.Fatalf("query %d left %d bytes resident after %d misses", i, st.ChunkCacheBytes, st.ChunkCacheMisses)
		}
		hits = append(hits, st.ChunkCacheHits)
	}
	if hits[1] <= hits[0] {
		t.Fatalf("repeating the query moved chunk_cache_hits %d → %d; want a rise", hits[0], hits[1])
	}
	if st := stats(); st.ChunkCacheEvictions == 0 {
		t.Fatal("the slice never outgrew the budget — eviction not exercised")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if st := stats(); st.ChunkCacheBytes != 0 {
		t.Fatalf("%d bytes still resident after Registry.Close", st.ChunkCacheBytes)
	}
}

// TestChunkCacheBudget: a registry's readers share one budget. It
// holds after every chunk a lookup admits, while two traces' chunks
// are resident side by side, and Delete and Close each take their
// reader's chunks out of it.
func TestChunkCacheBudget(t *testing.T) {
	const budget = 8 << 10
	root := t.TempDir()
	bigClosedStore(t, filepath.Join(root, "a"))
	bigClosedStore(t, filepath.Join(root, "b"))
	reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: budget})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	bytes := func() int64 {
		st := reg.ChunkCacheStats()
		if st.Bytes > budget {
			t.Fatalf("%d bytes resident over the %d budget", st.Bytes, budget)
		}
		return st.Bytes
	}
	ta, _ := reg.Get("a")
	tb, _ := reg.Get("b")

	// Each lookup admits at most one chunk.
	lo, hi := ta.reader.Window(0)
	for n := lo; n <= hi; n++ {
		for _, r := range []*store.Reader{ta.reader, tb.reader} {
			depsOf(r, ddg.MakeID(0, n))
			bytes()
		}
	}
	if reg.ChunkCacheStats().Evictions == 0 {
		t.Fatal("two traces fit the budget — eviction not exercised")
	}
	both := bytes()

	if err := reg.Delete("b", false); err != nil {
		t.Fatal(err)
	}
	onlyA := bytes()
	if onlyA == 0 || onlyA >= both {
		t.Fatalf("deleting b: %d → %d bytes; want a's share left", both, onlyA)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if got := bytes(); got != 0 {
		t.Fatalf("%d bytes resident after Close", got)
	}
}

// TestChunkCacheTrimNeverStale: trims rewrite a trace's chunk index
// under a warm shared cache — the janitor's TrimTrace prunes a closed
// trace's reader in place, and a live follower prunes trimmed
// segments on Poll — and no answer after either comes from a chunk
// cached under the old index: every lookup equals a cold reader's.
func TestChunkCacheTrimNeverStale(t *testing.T) {
	t.Run("TrimTrace", func(t *testing.T) {
		root := t.TempDir()
		dir := filepath.Join(root, "big")
		bigClosedStore(t, dir)
		reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: 16 << 10})
		if _, err := reg.Refresh(); err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		tr, _ := reg.Get("big")
		warm(tr.reader)
		removed, err := reg.TrimTrace("big", store.Retention{MaxBytes: 4 << 10})
		if err != nil || removed == 0 {
			t.Fatalf("trim removed %d segments (%v)", removed, err)
		}
		sameAsCold(t, tr.reader, dir)
	})
	t.Run("LivePrune", func(t *testing.T) {
		dir := t.TempDir()
		wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 1 << 10,
			Retain: store.Retention{MaxBytes: 4 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		c := ddg.NewCompactSized(0, 64)
		c.SetSpill(wr)
		appendChain(c, 0, 1, 200)
		c.Flush()
		r, err := store.Open(dir, store.ReaderOptions{Follow: true, Cache: store.NewChunkCache(16 << 10)})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		pruned := false
		for lo := uint64(201); lo < 1400; lo += 300 {
			warm(r)
			before, _ := r.Window(0)
			appendChain(c, 0, lo, lo+299)
			c.Flush()
			if _, err := r.Poll(); err != nil {
				t.Fatal(err)
			}
			after, _ := r.Window(0)
			pruned = pruned || after > before
			sameAsCold(t, r, dir)
		}
		if !pruned {
			t.Fatal("the follower's window never moved — no prune exercised")
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// warm looks up every instance of r's windows.
func warm(r *store.Reader) {
	for _, tid := range r.Threads() {
		lo, hi := r.Window(tid)
		for n := lo; n <= hi; n++ {
			depsOf(r, ddg.MakeID(tid, n))
		}
	}
}

// sameAsCold holds every lookup over r's windows to a reader opened
// cold over dir.
func sameAsCold(t *testing.T, r *store.Reader, dir string) {
	t.Helper()
	cold, err := store.Open(dir, store.ReaderOptions{Follow: r.Live()})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, tid := range r.Threads() {
		lo, hi := r.Window(tid)
		if clo, chi := cold.Window(tid); lo != clo || hi != chi {
			t.Fatalf("tid %d window [%d,%d], cold reader [%d,%d]", tid, lo, hi, clo, chi)
		}
		for n := lo; n <= hi; n++ {
			id := ddg.MakeID(tid, n)
			got, want := fmt.Sprint(depsOf(r, id)), fmt.Sprint(depsOf(cold, id))
			if got != want {
				t.Fatalf("deps of %v: %s, cold reader %s", id, got, want)
			}
			pc, ok := r.NodePC(id)
			cpc, cok := cold.NodePC(id)
			if pc != cpc || ok != cok {
				t.Fatalf("NodePC of %v: (%d,%v), cold reader (%d,%v)", id, pc, ok, cpc, cok)
			}
		}
	}
}
