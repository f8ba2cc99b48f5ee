package query

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/store"
)

// listTraces lists the registered fleet.
func listTraces(ctx context.Context, cl *Client) ([]TraceInfo, error) {
	var resp TracesResponse
	err := cl.do(ctx, http.MethodGet, "/v1/traces", nil, &resp)
	return resp.Traces, err
}

// deleteTrace unregisters a trace, leaving its directory on disk.
func deleteTrace(ctx context.Context, cl *Client, id string) (*DeleteResponse, error) {
	var resp DeleteResponse
	if err := cl.do(ctx, http.MethodDelete, "/v1/traces/"+id, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// newService records one workload and serves it; returns the client,
// the trace id, the registry, and the server.
func newService(t *testing.T, w *prog.Workload, attach bool, sopts ServerOptions) (*Client, string, *Registry, *Server) {
	t.Helper()
	return newServiceCache(t, w, attach, sopts, 64<<10)
}

// newServiceCache is newService with a cacheBytes chunk cache.
func newServiceCache(t *testing.T, w *prog.Workload, attach bool, sopts ServerOptions, cacheBytes int64) (*Client, string, *Registry, *Server) {
	t.Helper()
	opts := ontrac.StaticOptions()
	root := t.TempDir()
	dir := recordTrace(t, root, w, opts, 1)
	reg := NewRegistry([]string{root}, RegistryOptions{CacheBytes: cacheBytes})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	id := filepath.Base(dir)
	if attach {
		if err := reg.AttachProgram(id, w.Prog, opts); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg, sopts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), id, reg, s
}

// TestRegistryRefreshPicksUpClosedTraces: a store still being written
// registers live and flips to closed once its writer closes, and a
// later refresh publishes new stores without a restart.
func TestRegistryRefreshPicksUpClosedTraces(t *testing.T) {
	w := prog.Compress(200, 1)
	cl, _, _, _ := newService(t, w, false, ServerOptions{})
	ctx := context.Background()

	traces, err := listTraces(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("expected 1 trace, got %d", len(traces))
	}
	if len(traces[0].Threads) == 0 || traces[0].Chunks == 0 {
		t.Fatalf("trace info incomplete: %+v", traces[0])
	}

	// A store still being written registers live...
	root2 := t.TempDir()
	reg2 := NewRegistry([]string{root2}, RegistryOptions{})
	t.Cleanup(func() { reg2.Close() })
	wr, err := store.Create(store.Options{Dir: filepath.Join(root2, "live")})
	if err != nil {
		t.Fatal(err)
	}
	added, err := reg2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "live" {
		t.Fatalf("unclosed store not registered: %v", added)
	}
	tr, _ := reg2.Get("live")
	if !tr.Live() {
		t.Fatal("unclosed store registered closed")
	}
	// ...and PollLive flips it to closed once its writer closes.
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := reg2.PollLive()
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 1 || closed[0] != "live" || tr.Live() {
		t.Fatalf("writer closed, PollLive reported %v, live=%v", closed, tr.Live())
	}
	// Refresh is idempotent...
	if added, _ := reg2.Refresh(); len(added) != 0 {
		t.Fatalf("second refresh re-registered: %v", added)
	}
	// ...and picks up a store closed after the first one.
	wr, err = store.Create(store.Options{Dir: filepath.Join(root2, "later")})
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	added, err = reg2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "later" {
		t.Fatalf("closed store not picked up: %v", added)
	}
}

// TestServerRefreshEndpoint exercises pickup over HTTP: record a
// second trace after the server is live, POST /v1/refresh, slice the
// newcomer, and require the OnRefresh hook to have seen it (the
// daemon attaches programs there — both discovery paths must fire
// it).
func TestServerRefreshEndpoint(t *testing.T) {
	w := prog.Compress(200, 1)
	var hookMu sync.Mutex
	var hooked []string
	cl, _, reg, _ := newService(t, w, false, ServerOptions{
		OnRefresh: func(added []string) {
			hookMu.Lock()
			hooked = append(hooked, added...)
			hookMu.Unlock()
		},
	})
	ctx := context.Background()

	w2 := prog.MatMul(4, 3)
	dir2 := recordTrace(t, reg.roots[0], w2, ontrac.StaticOptions(), 2)
	var resp RefreshResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/refresh", nil, &resp); err != nil {
		t.Fatal(err)
	}
	id2 := filepath.Base(dir2)
	if len(resp.Added) != 1 || resp.Added[0] != id2 || resp.Traces != 2 {
		t.Fatalf("refresh: %+v", resp)
	}
	hookMu.Lock()
	hookedNow := append([]string(nil), hooked...)
	hookMu.Unlock()
	if len(hookedNow) != 1 || hookedNow[0] != id2 {
		t.Fatalf("OnRefresh hook saw %v, want [%s]", hookedNow, id2)
	}
	sl, err := cl.Slice(ctx, &SliceRequest{
		Trace: id2, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Nodes == 0 || len(sl.PCs) == 0 {
		t.Fatalf("empty slice from refreshed trace: %+v", sl)
	}
}

// TestServerErrorPaths covers the client-visible failure modes.
func TestServerErrorPaths(t *testing.T) {
	w := prog.Compress(150, 1)
	cl, id, _, _ := newService(t, w, false, ServerOptions{})
	ctx := context.Background()

	cases := []struct {
		name string
		req  *SliceRequest
		frag string
	}{
		{"unknown trace", &SliceRequest{Trace: "nope", Direction: DirBackward,
			Criteria: []Criterion{{TID: 0}}}, "unknown trace"},
		{"no records", &SliceRequest{Trace: id, Direction: DirBackward,
			Criteria: []Criterion{{TID: 77}}}, "no recorded instances"},
	}
	for _, c := range cases {
		if _, err := cl.Slice(ctx, c.req); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%s: error %v, want %q", c.name, err, c.frag)
		}
	}

	// Client-side validation rejects malformed requests before any
	// network I/O.
	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: "sideways",
		Criteria: []Criterion{{TID: 0}}}); err == nil {
		t.Fatal("bad direction accepted")
	}
	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward}); err == nil {
		t.Fatal("empty criteria accepted")
	}

	// Provenance without an attached program is a clean 422.
	if _, err := cl.Provenance(ctx, &ProvenanceRequest{Trace: id,
		Criteria: []Criterion{{TID: 0}}}); err == nil ||
		!strings.Contains(err.Error(), "program") {
		t.Fatalf("provenance without program: %v", err)
	}
}

// TestServerQueryLimit: with the semaphore already full, a query
// whose deadline expires in line is rejected 503 and counted.
func TestServerQueryLimit(t *testing.T) {
	w := prog.Compress(150, 1)
	cl, id, _, s := newService(t, w, false, ServerOptions{MaxConcurrent: 1})
	ctx := context.Background()

	s.sem <- struct{}{} // occupy the only slot
	_, err := cl.Slice(ctx, &SliceRequest{
		Trace: id, Direction: DirBackward,
		Criteria:       []Criterion{{TID: 0}},
		DeadlineMillis: 50,
	})
	if err == nil || !strings.Contains(err.Error(), "query limit") {
		t.Fatalf("full queue: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.MaxConcurrent != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	<-s.sem
	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true}); err != nil {
		t.Fatalf("freed queue still failing: %v", err)
	}
}

// TestServerBudget: a starved per-query budget truncates the served
// slice and says so; the server-wide default applies when the request
// names none.
func TestServerBudget(t *testing.T) {
	w := prog.Compress(1500, 1)
	cl, id, _, _ := newService(t, w, false, ServerOptions{BudgetChunkLoads: 1})
	ctx := context.Background()

	full, err := cl.Slice(ctx, &SliceRequest{
		Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true,
		BudgetChunkLoads: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.BudgetExhausted || full.Nodes == 0 {
		t.Fatalf("roomy budget: %+v", full)
	}
	if full.ChunkLoads == 0 {
		t.Fatal("no chunk loads counted")
	}

	// No budget in the request: the server default (1 load) bites.
	starved, err := cl.Slice(ctx, &SliceRequest{
		Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !starved.BudgetExhausted {
		t.Fatal("server-default budget never exhausted")
	}
	if starved.Nodes >= full.Nodes {
		t.Fatalf("starved slice (%d nodes) not smaller than full (%d)", starved.Nodes, full.Nodes)
	}
}

// TestServerConveniences: N=0 resolves to the newest instance and an
// omitted PC resolves from the stored record.
func TestServerConveniences(t *testing.T) {
	w := prog.Compress(400, 1)
	cl, id, reg, _ := newService(t, w, true, ServerOptions{})
	ctx := context.Background()

	tr, _ := reg.Get(id)
	_, hi := tr.reader.Window(0)
	pc, ok := tr.reader.NodePC(ddg.MakeID(0, hi))
	if !ok {
		t.Fatal("window top stored no record")
	}
	implicit, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0, N: hi, PC: &pc}}, FollowControl: true})
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Nodes != explicit.Nodes || implicit.Edges != explicit.Edges {
		t.Fatalf("implicit criterion diverged: %d/%d vs %d/%d",
			implicit.Nodes, implicit.Edges, explicit.Nodes, explicit.Edges)
	}
	if len(implicit.Lines) == 0 {
		t.Fatal("attached program produced no lines")
	}

	info, err := listTraces(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(info) != 1 || !info[0].Reconstructing || info[0].Program != w.Prog.Name {
		t.Fatalf("trace info: %+v", info[0])
	}
}

// TestServerResultCacheKeysOnAttachment: attaching a program changes
// the answer (lines, O1 reconstruction) without bumping the manifest
// generation, so a query served before the attach must not answer
// the same query after it — the daemon registers a trace before its
// discovery hook attaches the program, so that window always exists.
func TestServerResultCacheKeysOnAttachment(t *testing.T) {
	w := prog.Compress(200, 1)
	cl, id, reg, _ := newService(t, w, false, ServerOptions{})
	fresh, freshID, _, _ := newService(t, w, true, ServerOptions{})
	ctx := context.Background()
	slice := func(cl *Client, id string) *SliceResponse {
		t.Helper()
		resp, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
			Criteria: []Criterion{{TID: 0}}, FollowControl: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	same := func(a, b *SliceResponse) bool {
		return a.Nodes == b.Nodes && a.Edges == b.Edges &&
			reflect.DeepEqual(a.PCs, b.PCs) && reflect.DeepEqual(a.Lines, b.Lines)
	}

	if before := slice(cl, id); len(before.Lines) != 0 {
		t.Fatalf("unattached trace answered lines %v", before.Lines)
	}
	if err := reg.AttachProgram(id, w.Prog, ontrac.StaticOptions()); err != nil {
		t.Fatal(err)
	}
	want := slice(fresh, freshID)
	if len(want.Lines) == 0 {
		t.Fatal("attached program produced no lines")
	}
	after := slice(cl, id)
	if after.Cached {
		t.Fatal("query after AttachProgram served the answer cached before it")
	}
	if !same(after, want) {
		t.Fatalf("after attach: %d nodes, %d edges, lines %v; freshly attached server: %d, %d, %v",
			after.Nodes, after.Edges, after.Lines, want.Nodes, want.Edges, want.Lines)
	}
	if again := slice(cl, id); !again.Cached || !same(again, want) {
		t.Fatalf("repeat after attach: cached=%v, %d nodes, lines %v", again.Cached, again.Nodes, again.Lines)
	}
}

// TestServerDeadline: an effectively-zero deadline interrupts (or
// outright rejects) the query rather than hanging; generous deadlines
// don't perturb results.
func TestServerDeadline(t *testing.T) {
	w := prog.Compress(1500, 1)
	cl, id, _, _ := newService(t, w, false, ServerOptions{DefaultDeadline: time.Minute})
	ctx := context.Background()

	req := &SliceRequest{Trace: id, Direction: DirForward,
		Criteria: []Criterion{{TID: 0, N: 1}}, FollowControl: true}
	full, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Interrupted {
		t.Fatalf("generous deadline interrupted: %+v", full)
	}

	tight := *req
	tight.DeadlineMillis = 1
	got, err := cl.Slice(ctx, &tight)
	if err != nil {
		// The deadline can also fire while queued: a 503 is a valid
		// outcome for a 1ms budget.
		if !strings.Contains(err.Error(), "query limit") {
			t.Fatalf("tight deadline: %v", err)
		}
		return
	}
	if !got.Interrupted {
		// A fast machine can finish inside 1ms; the strict
		// interruption contract is pinned deterministically in
		// slicing's TestSliceCancellation. Here just require the
		// response stayed a valid under-approximation.
		t.Logf("note: 1ms deadline not hit (wall %.2fms)", got.WallMillis)
	}
	if got.Nodes > full.Nodes || got.Edges > full.Edges {
		t.Fatalf("deadline-limited slice larger than full: %d/%d vs %d/%d",
			got.Nodes, got.Edges, full.Nodes, full.Edges)
	}
}

// countingBody counts what the handler pulls out of a request body.
type countingBody struct {
	r io.Reader
	n int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += n
	return n, err
}

// TestServerCapsRequestBody: an oversized body is answered 413 after
// at most maxRequestBytes (+1, how MaxBytesReader notices) were read,
// on both POST endpoints; a valid request padded to exactly the cap
// is still served.
func TestServerCapsRequestBody(t *testing.T) {
	w := prog.Compress(150, 1)
	_, id, _, s := newService(t, w, true, ServerOptions{})
	h := s.Handler()
	post := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, body))
		return rr
	}

	for _, path := range []string{"/v1/slice", "/v1/provenance"} {
		body := &countingBody{r: strings.NewReader(`{"trace":"` + strings.Repeat("a", 2<<20) + `"}`)}
		rr := post(path, body)
		if rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: 2 MiB body answered %d, want 413", path, rr.Code)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: 413 body is not an ErrorResponse: %q (%v)", path, rr.Body.String(), err)
		}
		if body.n > maxRequestBytes+1 {
			t.Fatalf("%s: handler read %d bytes of an oversized body, cap %d", path, body.n, maxRequestBytes)
		}
	}

	req := SliceRequest{Trace: id, Direction: DirBackward, Criteria: make([]Criterion, MaxCriteria)}
	buf, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	padded := string(buf) + strings.Repeat(" ", maxRequestBytes-len(buf))
	if rr := post("/v1/slice", strings.NewReader(padded)); rr.Code != http.StatusOK {
		t.Fatalf("valid request of exactly %d bytes answered %d: %s", maxRequestBytes, rr.Code, rr.Body.String())
	}
}

// TestTraceInfoReportsIOError: a chunk load that fails with an I/O
// error, not crash damage, reaches /v1/traces as io_error beside the
// recovered flag the damaged chunks raise.
func TestTraceInfoReportsIOError(t *testing.T) {
	w := prog.Compress(400, 1)
	cl, id, reg, _ := newService(t, w, false, ServerOptions{})
	ctx := context.Background()
	tr, _ := reg.Get(id)

	// Replace thread 0's newest segment, which holds the criterion,
	// with a directory: opening it succeeds, reading it fails.
	segs, err := filepath.Glob(filepath.Join(tr.Dir, "t0-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	newest, last := "", -1
	for _, s := range segs {
		var k int
		if _, err := fmt.Sscanf(filepath.Base(s), "t0-%d.seg", &k); err == nil && k > last {
			newest, last = s, k
		}
	}
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(newest, 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}}); err != nil {
		t.Fatal(err)
	}
	traces, err := listTraces(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].IOError == "" || !traces[0].Recovered {
		t.Fatalf("trace info %+v: want io_error set and recovered", traces)
	}
}
