package query

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/store"
)

// bigClosedStore records a single-thread chain long enough to seal
// several small segments — the shape retention needs to have victims.
func bigClosedStore(t *testing.T, dir string) {
	t.Helper()
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 32)
	c.SetSpill(wr)
	appendChain(c, 0, 1, 600)
	c.Flush()
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDeleteAndPurge: Delete unregisters; the directory
// tombstone keeps Refresh from silently re-adopting it; purge also
// removes the bytes.
func TestRegistryDeleteAndPurge(t *testing.T) {
	root := t.TempDir()
	dirA := filepath.Join(root, "a")
	dirB := filepath.Join(root, "b")
	closedStore(t, dirA)
	closedStore(t, dirB)
	reg := NewRegistry([]string{root}, RegistryOptions{})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if err := reg.Delete("a", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("a"); ok {
		t.Fatal("deleted trace still registered")
	}
	if reg.Len() != 1 {
		t.Fatalf("registry len %d after delete, want 1", reg.Len())
	}
	if _, err := os.Stat(dirA); err != nil {
		t.Fatalf("non-purge delete touched the directory: %v", err)
	}
	// The tombstone holds across rescans.
	if added, err := reg.Refresh(); err != nil || len(added) != 0 {
		t.Fatalf("refresh re-adopted deleted trace: %v %v", added, err)
	}
	if err := reg.Delete("a", false); !errors.Is(err, ErrUnknownTrace) {
		t.Fatalf("double delete: %v, want ErrUnknownTrace", err)
	}

	if err := reg.Delete("b", true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dirB); !os.IsNotExist(err) {
		t.Fatalf("purge left the directory behind: %v", err)
	}
}

// TestServerDeleteEndpoint drives DELETE /v1/traces/{id} end to end
// through the typed client.
func TestServerDeleteEndpoint(t *testing.T) {
	root := t.TempDir()
	closedStore(t, filepath.Join(root, "run"))
	reg := NewRegistry([]string{root}, RegistryOptions{})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewServer(reg, ServerOptions{}).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if _, err := deleteTrace(ctx, cl, "nope"); err == nil || !strings.Contains(err.Error(), "http 404") {
		t.Fatalf("delete of unknown trace: %v, want 404", err)
	}
	resp, err := deleteTrace(ctx, cl, "run")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != "run" || resp.Purged {
		t.Fatalf("delete response %+v", resp)
	}
	traces, err := listTraces(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Fatalf("fleet still lists deleted trace: %+v", traces)
	}
}

// TestServerResultCache: a repeated identical query on a closed trace
// is served from the result cache (Cached flag + hit counter), a trim
// bumps the manifest generation and invalidates it naturally, and the
// post-trim answer reports the trimmed window truncation.
func TestServerResultCache(t *testing.T) {
	root := t.TempDir()
	bigClosedStore(t, filepath.Join(root, "big"))
	reg := NewRegistry([]string{root}, RegistryOptions{})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewServer(reg, ServerOptions{}).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	req := &SliceRequest{Trace: "big", Direction: DirBackward, Criteria: []Criterion{{TID: 0}}}
	resp1, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp1.Cached {
		t.Fatal("first query claims a cache hit")
	}
	if resp1.Nodes != 600 {
		t.Fatalf("chain closure %d nodes, want 600", resp1.Nodes)
	}
	resp2, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("repeat query missed the result cache")
	}
	if resp2.Nodes != resp1.Nodes || len(resp2.PCs) != len(resp1.PCs) {
		t.Fatalf("cached answer diverged: %d/%d nodes, %d/%d pcs",
			resp2.Nodes, resp1.Nodes, len(resp2.PCs), len(resp1.PCs))
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHits != 1 || st.ResultCacheMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", st.ResultCacheHits, st.ResultCacheMisses)
	}

	// Trim the store via the registry's janitor path: the generation
	// bump must invalidate the cached answer without any explicit
	// flush.
	tr, _ := reg.Get("big")
	genBefore := tr.Generation()
	removed, err := reg.TrimTrace("big", store.Retention{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("trim removed nothing; retention budget not exercised")
	}
	if tr.Generation() <= genBefore {
		t.Fatalf("generation %d not bumped past %d by trim", tr.Generation(), genBefore)
	}
	resp3, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Cached {
		t.Fatal("trimmed store served a stale cached answer")
	}
	if !resp3.TruncatedAtWindow {
		t.Fatal("post-trim slice did not report window truncation")
	}
	if resp3.Nodes >= resp1.Nodes {
		t.Fatalf("post-trim closure %d nodes, want fewer than %d", resp3.Nodes, resp1.Nodes)
	}
	// The fleet listing now reports the trimmed floor.
	traces, err := listTraces(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || len(traces[0].Trimmed) == 0 || traces[0].Trimmed[0].Lo <= 1 {
		t.Fatalf("trace info missing trimmed window: %+v", traces)
	}
	// And the recomputed answer caches again under the new generation.
	resp4, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp4.Cached || resp4.Nodes != resp3.Nodes {
		t.Fatalf("post-trim repeat not cached correctly: cached=%v nodes=%d/%d",
			resp4.Cached, resp4.Nodes, resp3.Nodes)
	}
}

// TestRegistryTrimTraceRefusesLive: the janitor must never trim under
// a live writer — the writer owns retention for its own store.
func TestRegistryTrimTraceRefusesLive(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "hot")
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	c := ddg.NewCompactSized(0, 32)
	c.SetSpill(wr)
	appendChain(c, 0, 1, 50)
	c.Flush()

	reg := NewRegistry([]string{root}, RegistryOptions{})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if _, err := reg.TrimTrace("hot", store.Retention{MaxBytes: 1}); err == nil || !strings.Contains(err.Error(), "still recording") {
		t.Fatalf("trim of live trace: %v, want refusal", err)
	}
	if _, err := reg.TrimTrace("nope", store.Retention{MaxBytes: 1}); !errors.Is(err, ErrUnknownTrace) {
		t.Fatalf("trim of unknown trace: %v, want ErrUnknownTrace", err)
	}
}
