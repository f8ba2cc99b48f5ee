package query

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/store"
)

// appendChain lands instances [lo,hi] on tid, each data-depending on
// its predecessor — enough structure to slice against.
func appendChain(c *ddg.Compact, tid int, lo, hi uint64) {
	for n := lo; n <= hi; n++ {
		use := ddg.MakeID(tid, n)
		pc := int32((n % 31) + 1)
		var deps []ddg.Dep
		if n > 1 {
			deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
				Def: ddg.MakeID(tid, n-1), DefPC: int32((n-1)%31) + 1, Kind: ddg.Data})
		}
		c.Append(use, pc, deps, 0)
	}
}

// closedStore creates dir as a minimal sealed trace store.
func closedStore(t *testing.T, dir string) {
	t.Helper()
	wr, err := store.Create(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 16)
	c.SetSpill(wr)
	appendChain(c, 0, 1, 10)
	c.Flush()
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDeterministicIDs pins the id-collision fix: two stores
// with the same basename must get the same public ids no matter
// which root is scanned first, and the collision suffix must derive
// from the directory itself, not from registration order. Before the
// fix the "@2" counter went to whichever directory the scan reached
// first, so restarting the daemon with reordered -root flags renamed
// traces out from under clients.
func TestRegistryDeterministicIDs(t *testing.T) {
	rootA, rootB := t.TempDir(), t.TempDir()
	dirA := filepath.Join(rootA, "run")
	dirB := filepath.Join(rootB, "run")
	closedStore(t, dirA)
	closedStore(t, dirB)

	assign := func(roots ...string) map[string]string { // dir -> id
		t.Helper()
		reg := NewRegistry(roots, RegistryOptions{})
		added, err := reg.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if len(added) != 2 {
			t.Fatalf("registered %v, want both colliding stores", added)
		}
		m := make(map[string]string)
		for _, id := range added {
			tr, ok := reg.Get(id)
			if !ok {
				t.Fatalf("added id %q not gettable", id)
			}
			m[tr.Dir] = id
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		return m
	}

	fwd := assign(rootA, rootB)
	rev := assign(rootB, rootA)
	if fmt.Sprint(fwd) != fmt.Sprint(rev) {
		t.Fatalf("id assignment depends on root order:\n[A,B] %v\n[B,A] %v", fwd, rev)
	}

	// The canonically-smaller path keeps the bare name; the other gets
	// a tag derived from its own path, so it is stable across every
	// future rescan.
	ca, err := filepath.Abs(dirA)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := filepath.Abs(dirB)
	if err != nil {
		t.Fatal(err)
	}
	bare, suffixed, suffixedCanon := dirA, dirB, cb
	if cb < ca {
		bare, suffixed, suffixedCanon = dirB, dirA, ca
	}
	if fwd[bare] != "run" {
		t.Fatalf("canonically-first store got id %q, want bare %q", fwd[bare], "run")
	}
	if want := "run@" + dirTag(suffixedCanon); fwd[suffixed] != want {
		t.Fatalf("collision suffix %q, want content-derived %q", fwd[suffixed], want)
	}
}

// TestRegistryCloseRefreshRace hammers Refresh and PollLive from
// several goroutines while Close tears the registry down (run under
// -race in CI): a refresh must never open readers a concurrent
// shutdown has already swept past, and every call after Close
// returns ErrClosed instead of resurrecting the fleet.
func TestRegistryCloseRefreshRace(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		closedStore(t, filepath.Join(root, fmt.Sprintf("s%d", i)))
	}
	wr, err := store.Create(store.Options{Dir: filepath.Join(root, "rec")})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()

	reg := NewRegistry([]string{root}, RegistryOptions{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 1000; j++ {
				if _, err := reg.Refresh(); errors.Is(err, ErrClosed) {
					return
				}
				if _, err := reg.PollLive(); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
	}
	close(start)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// A store landing after shutdown stays unregistered: the periodic
	// refresh ticker racing process exit must not open readers nobody
	// will ever close.
	closedStore(t, filepath.Join(root, "late"))
	if _, err := reg.Refresh(); !errors.Is(err, ErrClosed) {
		t.Fatalf("refresh after close = %v, want ErrClosed", err)
	}
	if _, err := reg.PollLive(); !errors.Is(err, ErrClosed) {
		t.Fatalf("poll after close = %v, want ErrClosed", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestServeLiveTrace follows a trace end to end over HTTP while its
// writer is still recording: registration mid-run, live info and
// stats, slices answered at the advancing frontier with live: true,
// and the flip to served-complete (no live fields) once the writer
// closes.
func TestServeLiveTrace(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "hot")
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 32)
	c.SetSpill(wr)
	appendChain(c, 0, 1, 120)
	c.Flush()

	reg := NewRegistry([]string{root}, RegistryOptions{})
	added, err := reg.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "hot" {
		t.Fatalf("live store not registered: %v", added)
	}
	defer reg.Close()

	srv := httptest.NewServer(NewServer(reg, ServerOptions{}).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	traces, err := listTraces(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || !traces[0].Live {
		t.Fatalf("trace not reported live: %+v", traces)
	}
	if len(traces[0].Threads) != 1 || traces[0].Threads[0].Hi != 120 {
		t.Fatalf("frontier %+v, want tid 0 up to 120", traces[0].Threads)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveTraces != 1 {
		t.Fatalf("stats report %d live traces, want 1", st.LiveTraces)
	}

	// A slice mid-recording: criterion N=0 resolves to the frontier's
	// newest instance, and the response declares the window it was
	// answered against.
	req := &SliceRequest{Trace: "hot", Direction: DirBackward, Criteria: []Criterion{{TID: 0}}}
	sl, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Live {
		t.Fatalf("slice of a recording trace not marked live: %+v", sl)
	}
	if len(sl.Frontier) != 1 || sl.Frontier[0].TID != 0 || sl.Frontier[0].Hi != 120 {
		t.Fatalf("slice frontier %+v, want tid 0 up to 120", sl.Frontier)
	}
	if sl.Nodes != 120 {
		t.Fatalf("backward chain closure hit %d nodes at frontier 120", sl.Nodes)
	}

	// More of the execution lands; the poll advances the frontier and
	// the same query now covers it.
	appendChain(c, 0, 121, 250)
	c.Flush()
	closed, err := reg.PollLive()
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 0 {
		t.Fatalf("poll flagged %v closed while the writer is still open", closed)
	}
	sl, err = cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Live || len(sl.Frontier) != 1 || sl.Frontier[0].Hi != 250 || sl.Nodes != 250 {
		t.Fatalf("slice did not advance with the frontier: %+v", sl)
	}

	// The writer closes: the next poll reports the transition, and the
	// trace serves complete — responses drop the live fields so closed
	// traces stay wire-identical to ones registered after the fact.
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err = reg.PollLive()
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 1 || closed[0] != "hot" {
		t.Fatalf("close transition reported %v, want [hot]", closed)
	}
	if n := reg.LiveCount(); n != 0 {
		t.Fatalf("%d traces still live after the writer closed", n)
	}
	sl, err = cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Live || sl.Frontier != nil {
		t.Fatalf("closed trace still reports live fields: %+v", sl)
	}
	if sl.Nodes != 250 {
		t.Fatalf("closed trace slice hit %d nodes, want 250", sl.Nodes)
	}
	st, err = cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveTraces != 0 {
		t.Fatalf("stats report %d live traces after close, want 0", st.LiveTraces)
	}
}
