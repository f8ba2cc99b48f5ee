package query

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// sliceWorkers selects slicing's sharded walk (any value > 1 does:
// the slicers run one goroutine per trace thread, not a pool of this
// size). Every served source reads through a store.Reader, which is
// safe for concurrent use.
const sliceWorkers = 8

// ServerOptions tunes the query service.
type ServerOptions struct {
	// MaxConcurrent bounds simultaneously executing slice/provenance
	// queries (default 4). Excess queries wait in line until their
	// deadline, then get 503.
	MaxConcurrent int
	// DefaultDeadline applies when a request names none (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines (default 2m).
	MaxDeadline time.Duration
	// BudgetChunkLoads is the default per-query chunk-decode budget;
	// 0 means unlimited unless the request asks for a budget.
	BudgetChunkLoads int64
	// ResultCacheEntries bounds the LRU result cache for completed
	// slice answers, keyed on (trace id, manifest generation, program
	// attachment, criteria, options). Dashboard-style repeat queries are
	// served in O(1); any trim, seal or AttachProgram invalidates
	// naturally.
	// 0 means the default (256); negative disables caching.
	ResultCacheEntries int
	// OnRefresh, when non-nil, runs after every successful POST
	// /v1/refresh that registered new traces, with their ids — the
	// same hook a daemon's periodic refresh uses (e.g. attaching
	// workload programs), so both discovery paths behave identically.
	OnRefresh func(added []string)
}

func (o *ServerOptions) fill() {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 2 * time.Minute
	}
	if o.ResultCacheEntries == 0 {
		o.ResultCacheEntries = 256
	}
}

// resultCache memoizes completed slice responses under an LRU bound.
// Keys fold in the trace's manifest generation, so entries for a
// trimmed or newly-sealed store simply stop being reachable — no
// explicit expiry needed beyond trace deletion.
type resultCache struct {
	mu    sync.Mutex
	max   int
	items map[string]*list.Element
	order *list.List // front = most recent

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key   string
	trace string
	resp  *SliceResponse
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{max: max, items: make(map[string]*list.Element), order: list.New()}
}

// get returns a copy of the cached response for key, if present. A
// nil cache misses everything (and counts nothing).
func (c *resultCache) get(key string) *SliceResponse {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.order.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	resp := *el.Value.(*cacheEntry).resp
	return &resp
}

func (c *resultCache) put(key, trace string, resp *SliceResponse) {
	if c == nil {
		return
	}
	cp := *resp
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).resp = &cp
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, trace: trace, resp: &cp})
	for len(c.items) > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
}

// invalidateTrace drops every entry for a trace id — the DELETE
// endpoint's hook, so a re-registered trace under the same id can
// never be answered from its predecessor's results.
func (c *resultCache) invalidateTrace(trace string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.trace == trace {
			c.order.Remove(el)
			delete(c.items, ent.key)
		}
		el = next
	}
}

// sliceCacheKey hashes everything that determines a slice answer: the
// trace id, its manifest generation (bumped by every trim and seal),
// its program attachment count, the traversal options, and the
// resolved criteria. The deadline is deliberately excluded — it shapes
// wall time, not the answer.
func sliceCacheKey(trace string, gen, attach uint64, req *SliceRequest, crits []slicing.Criterion) string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(trace))
	h.Write([]byte{0})
	writeU64(gen)
	writeU64(attach)
	h.Write([]byte(req.Direction))
	h.Write([]byte{0, b2b(req.FollowControl), b2b(req.FollowAnti), b2b(req.Raw)})
	writeU64(uint64(req.MaxNodes))
	writeU64(uint64(req.BudgetChunkLoads))
	for _, c := range crits {
		writeU64(uint64(c.ID))
		writeU64(uint64(uint32(c.PC)))
	}
	return string(h.Sum(nil))
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Server is the HTTP layer over a Registry. Endpoints:
//
//	GET    /v1/healthz      liveness
//	GET    /v1/stats        query counters
//	GET    /v1/traces       the registered fleet
//	DELETE /v1/traces/{id}  unregister a trace (?purge=1 removes its dir)
//	POST   /v1/refresh      rescan roots for newly closed traces
//	POST   /v1/slice        SliceRequest -> SliceResponse
//	POST   /v1/provenance   ProvenanceRequest -> ProvenanceResponse
//
// Every query runs under a deadline (cancelling the traversal
// cooperatively), inside the concurrency limit, against its own
// chunk-load budget.
type Server struct {
	reg   *Registry
	opts  ServerOptions
	sem   chan struct{}
	cache *resultCache

	active   atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
}

// NewServer builds the service over the registry.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	opts.fill()
	return &Server{
		reg:   reg,
		opts:  opts,
		sem:   make(chan struct{}, opts.MaxConcurrent),
		cache: newResultCache(opts.ResultCacheEntries),
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("DELETE /v1/traces/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/refresh", s.handleRefresh)
	mux.HandleFunc("POST /v1/slice", s.handleSlice)
	mux.HandleFunc("POST /v1/provenance", s.handleProvenance)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "traces": s.reg.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	cc := s.reg.ChunkCacheStats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Traces:        s.reg.Len(),
		LiveTraces:    s.reg.LiveCount(),
		ActiveQueries: s.active.Load(),
		QueriesServed: s.served.Load(),
		Rejected:      s.rejected.Load(),
		MaxConcurrent: s.opts.MaxConcurrent,

		ResultCacheHits:   s.cacheHits(),
		ResultCacheMisses: s.cacheMisses(),

		ReverseIndexBuilds: s.reg.ReverseIndexBuilds(),
		ReverseIndexHits:   s.reg.ReverseIndexHits(),
		ReverseIndexBytes:  s.reg.ReverseIndexBytes(),

		ChunkCacheBytes:       cc.Bytes,
		ChunkCacheBudgetBytes: cc.Budget,
		ChunkCacheHits:        cc.Hits,
		ChunkCacheMisses:      cc.Misses,
		ChunkCacheEvictions:   cc.Evictions,
	})
}

func (s *Server) cacheHits() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.hits.Load()
}

func (s *Server) cacheMisses() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.misses.Load()
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	purge := r.URL.Query().Get("purge") == "1"
	if err := s.reg.Delete(id, purge); err != nil {
		switch {
		case errors.Is(err, ErrUnknownTrace):
			writeErr(w, http.StatusNotFound, "unknown trace %q", id)
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, "delete: %v", err)
		default:
			writeErr(w, http.StatusInternalServerError, "delete: %v", err)
		}
		return
	}
	// Stale answers must die with the trace: a future trace registered
	// under the same id starts from a cold cache.
	s.cache.invalidateTrace(id)
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: id, Purged: purge})
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, TracesResponse{Traces: s.reg.List()})
}

func (s *Server) handleRefresh(w http.ResponseWriter, _ *http.Request) {
	added, err := s.reg.Refresh()
	// The hook runs even when the scan also hit an error: traces from
	// healthy roots registered for good (Refresh never re-reports
	// them), so skipping the hook here would lose their attachment
	// forever.
	if len(added) > 0 && s.opts.OnRefresh != nil {
		s.opts.OnRefresh(added)
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable // shutting down
		}
		writeErr(w, status, "refresh: %v", err)
		return
	}
	if added == nil {
		added = []string{}
	}
	writeJSON(w, http.StatusOK, RefreshResponse{Added: added, Traces: s.reg.Len()})
}

// acquire admits one query within the concurrency limit, waiting no
// longer than the context allows.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		s.rejected.Add(1)
		return false
	}
}

func (s *Server) release() { <-s.sem }

// deadline resolves a request's deadline against the server bounds.
func (s *Server) deadline(requestedMillis int64) time.Duration {
	d := s.opts.DefaultDeadline
	if requestedMillis > 0 {
		d = time.Duration(requestedMillis) * time.Millisecond
	}
	if d > s.opts.MaxDeadline {
		d = s.opts.MaxDeadline
	}
	return d
}

// resolveCriteria turns wire criteria into slicing criteria against
// the windows snapshot: N == 0 selects the thread's newest landed
// instance, and an omitted PC is looked up from the stored record.
// Resolving against the same snapshot the response reports keeps a
// live answer self-consistent even while a poll advances the trace.
func resolveCriteria(windows []ThreadWindow, src ddg.Source, wire []Criterion) ([]slicing.Criterion, error) {
	hiOf := func(tid int) uint64 {
		for _, w := range windows {
			if w.TID == tid {
				return w.Hi
			}
		}
		return 0
	}
	out := make([]slicing.Criterion, 0, len(wire))
	for i, c := range wire {
		n := c.N
		if n == 0 {
			hi := hiOf(c.TID)
			if hi == 0 {
				return nil, fmt.Errorf("criterion %d: thread %d has no recorded instances", i, c.TID)
			}
			n = hi
		}
		id := ddg.MakeID(c.TID, n)
		pc := int32(-1)
		if c.PC != nil {
			pc = *c.PC
		} else if got, ok := src.NodePC(id); ok {
			pc = got
		}
		out = append(out, slicing.Criterion{ID: id, PC: pc})
	}
	return out, nil
}

// runSlice executes a validated slice request. The error string, if
// any, is client-safe; status picks the HTTP code.
func (s *Server) runSlice(ctx context.Context, req *SliceRequest) (*SliceResponse, int, error) {
	t, ok := s.reg.Get(req.Trace)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown trace %q", req.Trace)
	}
	ctx, cancel := context.WithTimeout(ctx, s.deadline(req.DeadlineMillis))
	defer cancel()
	if !s.acquire(ctx) {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("query limit reached (%d concurrent)", s.opts.MaxConcurrent)
	}
	defer s.release()
	s.active.Add(1)
	defer s.active.Add(-1)

	var budget *store.Budget
	if n := req.BudgetChunkLoads; n > 0 {
		budget = store.NewBudget(int(n))
	} else if s.opts.BudgetChunkLoads > 0 {
		budget = store.NewBudget(int(s.opts.BudgetChunkLoads))
	}
	// Read the generation first: a poll publishes a new one only after
	// the reader reflects it, so an answer computed from here on is
	// never older than the key it is cached under. A trim racing the
	// query can only file a newer answer under an older key.
	gen := t.Generation()
	// Snapshot liveness and the frontier once: criteria resolve
	// against it, and the response reports the same windows, so the
	// answer names exactly the prefix it was computed over even if a
	// poll lands mid-query.
	live := t.Live()
	frontier := t.Frontier()
	// Read before source loads the program, for the same reason.
	attach := t.attachSeq.Load()
	src := t.source(budget, req.Raw)
	crits, err := resolveCriteria(frontier, src, req.Criteria)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}

	// A closed trace's answer is fully determined by the manifest
	// generation, the program attachment and the resolved request, so
	// repeat queries hit the result cache; live traces advance between
	// polls without a generation bump, so they always recompute.
	var key string
	if !live {
		key = sliceCacheKey(req.Trace, gen, attach, req, crits)
		if resp := s.cache.get(key); resp != nil {
			resp.Cached = true
			s.served.Add(1)
			return resp, http.StatusOK, nil
		}
	}
	sopts := slicing.Options{
		FollowControl: req.FollowControl,
		FollowAnti:    req.FollowAnti,
		MaxNodes:      req.MaxNodes,
		Done:          ctx.Done(),
	}

	start := time.Now()
	var sl *slicing.Slice
	if req.Direction == DirBackward {
		sl = slicing.ParallelBackward(src, t.Program(), crits, sopts, sliceWorkers)
	} else {
		ids := make([]ddg.ID, len(crits))
		for i, c := range crits {
			ids[i] = c.ID
		}
		rev := t.reverse(src, live, gen, attach, req.Raw, budget, ctx.Done())
		sl = slicing.ForwardOver(rev, src, t.Program(), ids, sopts, sliceWorkers)
	}
	wall := time.Since(start)
	s.served.Add(1)

	resp := &SliceResponse{
		Trace:             req.Trace,
		Direction:         req.Direction,
		PCs:               sortedPCs(sl.PCs),
		Lines:             sl.Lines,
		Nodes:             sl.Nodes,
		Edges:             sl.Edges,
		TruncatedAtWindow: sl.TruncatedAtWindow,
		BudgetExhausted:   budget.Exhausted(),
		Interrupted:       sl.Interrupted,
		ChunkLoads:        budget.ChunkLoads(),
		WallMillis:        float64(wall) / float64(time.Millisecond),
	}
	if live {
		// Only live answers carry the window: closed-trace responses
		// stay byte-identical to the pre-live wire format.
		resp.Live = true
		resp.Frontier = frontier
	}
	if len(sl.ShardBusy) > 0 {
		resp.ShardBusyMillis = make(map[string]float64, len(sl.ShardBusy))
		for tid, busy := range sl.ShardBusy {
			resp.ShardBusyMillis[strconv.Itoa(tid)] = float64(busy) / float64(time.Millisecond)
		}
	}
	// Only complete answers are worth memoizing: an interrupted or
	// budget-starved traversal would replay its partiality forever.
	if key != "" && !resp.Interrupted && !resp.BudgetExhausted {
		s.cache.put(key, req.Trace, resp)
	}
	return resp, http.StatusOK, nil
}

// maxRequestBytes caps a slice or provenance request body. A valid
// request is a few hundred bytes (1024 criteria stay under 64 KiB),
// and the decoder holds a string value whole before Validate can
// reject it, so an uncapped body is unbounded memory.
const maxRequestBytes = 1 << 20

// writeDecodeErr answers a body that did not decode: 413 when it ran
// into maxRequestBytes, 400 otherwise.
func writeDecodeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, "%v", err)
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSliceRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeDecodeErr(w, err)
		return
	}
	resp, status, err := s.runSlice(r.Context(), req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeProvenanceRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeDecodeErr(w, err)
		return
	}
	t, ok := s.reg.Get(req.Trace)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown trace %q", req.Trace)
		return
	}
	prog := t.Program()
	if prog == nil {
		writeErr(w, http.StatusUnprocessableEntity,
			"provenance requires a program attached to trace %q", req.Trace)
		return
	}
	// Provenance is the backward data-only slice (no control, no
	// anti edges): exactly the statements the value flowed out of.
	resp, status, err := s.runSlice(r.Context(), req.slice())
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	prov := &ProvenanceResponse{InputPCs: []int32{}, Slice: *resp}
	lineSeen := make(map[int]bool)
	for _, pc := range resp.PCs {
		if int(pc) < len(prog.Instrs) && prog.Instrs[pc].Op == isa.IN {
			prov.InputPCs = append(prov.InputPCs, pc)
			if line := prog.LineOf(int(pc)); line >= 0 && !lineSeen[line] {
				lineSeen[line] = true
				prov.InputLines = append(prov.InputLines, line)
			}
		}
	}
	sort.Ints(prov.InputLines)
	writeJSON(w, http.StatusOK, prov)
}

// sortedPCs flattens a PC set for the wire.
func sortedPCs(pcs map[int32]bool) []int32 {
	out := make([]int32, 0, len(pcs))
	for pc := range pcs {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
