// Package query is the trace query service: a long-lived process
// that discovers closed trace-store directories (internal/store),
// holds open readers over the fleet, and serves backward/forward
// slice and taint-provenance queries over an HTTP+JSON surface —
// criteria in, statement/PC sets plus truncation info out. It is the
// multi-user front half of the system: recording produces trace
// directories, the service answers questions about them without the
// caller importing any analysis package.
//
// The pieces:
//
//   - Registry (registry.go): maps trace ids to open store.Readers,
//     refreshed on demand or on a timer so newly closed trace
//     directories appear without a restart; a program can be attached
//     to a trace for statement-level answers, provenance, and O1
//     reconstruction (ontrac.Reconstructor).
//   - Server (server.go): the HTTP layer — per-query deadlines
//     (cooperative cancellation through slicing.Options.Done), a
//     concurrent-query limit, and per-query chunk-load budgets
//     (store.Budget) so one query cannot drag a whole store through
//     the shared chunk cache.
//   - Client (client.go): a thin typed client over the same wire
//     model.
//
// This file is the wire model and its codec: the JSON types both
// sides share, with strict decoding and validation (fuzzed by
// FuzzQueryCodec against the in-memory model).
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// Directions for SliceRequest.
const (
	DirBackward = "backward"
	DirForward  = "forward"
)

// Wire-model bounds, enforced by Validate on both ends.
const (
	// MaxCriteria bounds the start points of one query.
	MaxCriteria = 1024
	// MaxTID is the exclusive upper bound on thread ids (ddg.ID packs
	// the thread into 16 bits).
	MaxTID = 1 << 16
	// MaxN is the exclusive upper bound on per-thread instance
	// numbers (48-bit field).
	MaxN = uint64(1) << 48
)

// Criterion is one slicing start point on the wire.
type Criterion struct {
	// TID is the thread id.
	TID int `json:"tid"`
	// N is the 1-based per-thread dynamic instruction number; 0 (or
	// omitted) selects the thread's newest retained instance.
	N uint64 `json:"n,omitempty"`
	// PC optionally pins the criterion's static PC. Omitted, the
	// server resolves it from the trace's stored record (and slices
	// with -1 — "unknown" — when the instance stored none).
	PC *int32 `json:"pc,omitempty"`
}

// SliceRequest asks for a dynamic slice of one trace.
type SliceRequest struct {
	// Trace is the registry id (GET /v1/traces lists them).
	Trace string `json:"trace"`
	// Direction is DirBackward or DirForward.
	Direction string `json:"direction"`
	// Criteria are the start points (at least one).
	Criteria []Criterion `json:"criteria"`
	// FollowControl includes dynamic control dependences.
	FollowControl bool `json:"follow_control,omitempty"`
	// FollowAnti includes WAR/WAW edges.
	FollowAnti bool `json:"follow_anti,omitempty"`
	// MaxNodes bounds the traversal (0 = unbounded; the sharded
	// traversal enforces it cooperatively).
	MaxNodes int `json:"max_nodes,omitempty"`
	// DeadlineMillis requests a per-query deadline; the server clamps
	// it to its configured maximum (0 = server default).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// BudgetChunkLoads caps this query's chunk decodes against the
	// store (0 = server default; the server may itself default to
	// unlimited).
	BudgetChunkLoads int64 `json:"budget_chunk_loads,omitempty"`
	// Raw skips O1 reconstruction even when the trace has a program
	// attached, slicing only the stored records.
	Raw bool `json:"raw,omitempty"`
}

// Validate checks the request against the wire-model bounds.
func (r *SliceRequest) Validate() error {
	if r.Trace == "" {
		return errors.New("query: trace is required")
	}
	if !utf8.ValidString(r.Trace) {
		// encoding/json silently rewrites invalid UTF-8 to U+FFFD on
		// Marshal, so such an id would name a different trace after
		// one wire trip. Reject it before it can be encoded at all.
		return errors.New("query: trace id must be valid UTF-8")
	}
	if r.Direction != DirBackward && r.Direction != DirForward {
		return fmt.Errorf("query: direction must be %q or %q", DirBackward, DirForward)
	}
	if len(r.Criteria) == 0 {
		return errors.New("query: at least one criterion is required")
	}
	if len(r.Criteria) > MaxCriteria {
		return fmt.Errorf("query: %d criteria exceeds the limit of %d", len(r.Criteria), MaxCriteria)
	}
	for i, c := range r.Criteria {
		if c.TID < 0 || c.TID >= MaxTID {
			return fmt.Errorf("query: criterion %d: tid %d out of range", i, c.TID)
		}
		if c.N >= MaxN {
			return fmt.Errorf("query: criterion %d: n %d out of range", i, c.N)
		}
	}
	if r.MaxNodes < 0 {
		return errors.New("query: max_nodes must be >= 0")
	}
	if r.DeadlineMillis < 0 {
		return errors.New("query: deadline_ms must be >= 0")
	}
	if r.BudgetChunkLoads < 0 {
		return errors.New("query: budget_chunk_loads must be >= 0")
	}
	return nil
}

// SliceResponse is the statement-level answer plus traversal and
// truncation metadata. A slice can be cut short three ways, each
// reported separately: the trace's retained window ended
// (TruncatedAtWindow), the query's chunk-load budget ran out
// (BudgetExhausted), or the deadline fired (Interrupted). In every
// case the reported slice is a valid under-approximation.
type SliceResponse struct {
	Trace     string `json:"trace"`
	Direction string `json:"direction"`
	// PCs is the sorted set of static instruction indices in the
	// slice.
	PCs []int32 `json:"pcs"`
	// Lines is the sorted set of statement ids; present only when the
	// trace has a program attached.
	Lines []int `json:"lines,omitempty"`
	Nodes int   `json:"nodes"`
	Edges int   `json:"edges"`

	TruncatedAtWindow bool `json:"truncated_at_window,omitempty"`
	BudgetExhausted   bool `json:"budget_exhausted,omitempty"`
	Interrupted       bool `json:"interrupted,omitempty"`

	// Live reports the trace was still recording when this slice ran:
	// the closure is bounded by Frontier, and re-running the query
	// after the frontier advances may grow it. Closed traces omit
	// both fields.
	Live bool `json:"live,omitempty"`
	// Frontier is the per-thread window of landed instances the slice
	// was answered against (live traces only). Dependences reaching
	// past it are reported via TruncatedAtWindow, exactly like the
	// ring's eviction window.
	Frontier []ThreadWindow `json:"frontier,omitempty"`

	// Cached reports the answer came from the server's result cache
	// (keyed on trace id + manifest generation + program attachment +
	// criteria + options), so no traversal ran. A trim, seal or program
	// attach naturally invalidates the entry.
	Cached bool `json:"cached,omitempty"`

	// ChunkLoads is the number of chunk decodes the query charged.
	ChunkLoads int64 `json:"chunk_loads,omitempty"`
	// WallMillis is the server-side traversal wall time.
	WallMillis float64 `json:"wall_ms"`
	// ShardBusyMillis maps thread shard id to that worker's busy time
	// ("-1" is the shard for threads the trace never recorded).
	ShardBusyMillis map[string]float64 `json:"shard_busy_ms,omitempty"`
}

// ProvenanceRequest asks where a value came from: the backward DATA
// slice of the criteria, reported as the input statements (isa.IN)
// it reaches — the paper's lineage question asked of a recorded
// trace. Requires the trace to have a program attached.
type ProvenanceRequest struct {
	Trace            string      `json:"trace"`
	Criteria         []Criterion `json:"criteria"`
	MaxNodes         int         `json:"max_nodes,omitempty"`
	DeadlineMillis   int64       `json:"deadline_ms,omitempty"`
	BudgetChunkLoads int64       `json:"budget_chunk_loads,omitempty"`
	Raw              bool        `json:"raw,omitempty"`
}

// slice converts the provenance request to the backward data-only
// slice request it is served as.
func (r *ProvenanceRequest) slice() *SliceRequest {
	return &SliceRequest{
		Trace:            r.Trace,
		Direction:        DirBackward,
		Criteria:         r.Criteria,
		MaxNodes:         r.MaxNodes,
		DeadlineMillis:   r.DeadlineMillis,
		BudgetChunkLoads: r.BudgetChunkLoads,
		Raw:              r.Raw,
	}
}

// Validate checks the request against the wire-model bounds.
func (r *ProvenanceRequest) Validate() error { return r.slice().Validate() }

// ProvenanceResponse reports the input statements the criteria are
// data-derived from, plus the full backward data slice they came out
// of.
type ProvenanceResponse struct {
	// InputPCs are the static indices of input instructions (isa.IN)
	// in the backward data slice, sorted.
	InputPCs []int32 `json:"input_pcs"`
	// InputLines are their statement ids, sorted.
	InputLines []int `json:"input_lines,omitempty"`
	// Slice is the underlying backward data slice.
	Slice SliceResponse `json:"slice"`
}

// ThreadWindow is one thread's retained instance range.
type ThreadWindow struct {
	TID int    `json:"tid"`
	Lo  uint64 `json:"lo"`
	Hi  uint64 `json:"hi"`
}

// TrimmedWindow is one thread's retention floor: instances below Lo
// were deleted by retention, and slices that reach them report
// truncated_at_window exactly like the ring's eviction edge.
type TrimmedWindow struct {
	TID int    `json:"tid"`
	Lo  uint64 `json:"lo"`
}

// TraceInfo describes one registered trace.
type TraceInfo struct {
	ID      string         `json:"id"`
	Dir     string         `json:"dir"`
	Threads []ThreadWindow `json:"threads"`
	Chunks  int            `json:"chunks"`
	// Recovered reports the store served a crash-recovered prefix.
	Recovered bool `json:"recovered,omitempty"`
	// Live reports the trace's writer has not closed yet: Threads is
	// the advancing frontier, not the final range.
	Live bool `json:"live,omitempty"`
	// Generation is the store's manifest generation at the last poll
	// (bumped by the writer on every seal and at close); clients can
	// diff it to detect structural change cheaply.
	Generation uint64 `json:"generation,omitempty"`
	// Trimmed lists per-thread retention floors (sorted by tid) for
	// stores whose history has been trimmed; each thread's retained
	// range is the suffix [Lo, window hi].
	Trimmed []TrimmedWindow `json:"trimmed,omitempty"`
	// Program is the attached program's name; empty when the trace is
	// served raw (PCs only, no lines, no provenance).
	Program string `json:"program,omitempty"`
	// Reconstructing reports that O1 reconstruction is composed over
	// the stored records for this trace.
	Reconstructing bool `json:"reconstructing,omitempty"`
}

// TracesResponse is GET /v1/traces.
type TracesResponse struct {
	Traces []TraceInfo `json:"traces"`
}

// RefreshResponse is POST /v1/refresh.
type RefreshResponse struct {
	// Added lists trace ids registered by this refresh.
	Added []string `json:"added"`
	// Traces is the fleet size after the refresh.
	Traces int `json:"traces"`
}

// DeleteResponse is DELETE /v1/traces/{id}.
type DeleteResponse struct {
	// Deleted is the unregistered trace id.
	Deleted string `json:"deleted"`
	// Purged reports the trace directory was also removed from disk.
	Purged bool `json:"purged,omitempty"`
}

// StatsResponse is GET /v1/stats.
type StatsResponse struct {
	Traces int `json:"traces"`
	// LiveTraces counts registered traces still recording.
	LiveTraces    int   `json:"live_traces"`
	ActiveQueries int64 `json:"active_queries"`
	QueriesServed int64 `json:"queries_served"`
	Rejected      int64 `json:"queries_rejected"`
	MaxConcurrent int   `json:"max_concurrent"`
	// ResultCacheHits/Misses count slice answers served from (and
	// filled into) the generation-keyed result cache.
	ResultCacheHits   int64 `json:"result_cache_hits,omitempty"`
	ResultCacheMisses int64 `json:"result_cache_misses,omitempty"`
	// ReverseIndexBuilds counts the def → uses indexes forward queries
	// built (one per closed trace, program attachment and raw flag, or
	// one per query on a live trace); ReverseIndexHits counts forward
	// queries that walked a cached one instead; ReverseIndexBytes is
	// what the cached indexes hold in memory right now, a part of
	// ChunkCacheBytes.
	ReverseIndexBuilds int64 `json:"reverse_index_builds,omitempty"`
	ReverseIndexHits   int64 `json:"reverse_index_hits,omitempty"`
	ReverseIndexBytes  int64 `json:"reverse_index_bytes,omitempty"`
	// ChunkCacheBytes is what the cache every reader shares holds
	// right now, decoded chunks and reverse indexes, against
	// ChunkCacheBudgetBytes; ChunkCacheHits and ChunkCacheMisses count
	// chunk lookups it served and did not, ChunkCacheEvictions the
	// entries it evicted to stay within the budget.
	ChunkCacheBytes       int64 `json:"chunk_cache_bytes"`
	ChunkCacheBudgetBytes int64 `json:"chunk_cache_budget_bytes"`
	ChunkCacheHits        int64 `json:"chunk_cache_hits"`
	ChunkCacheMisses      int64 `json:"chunk_cache_misses"`
	ChunkCacheEvictions   int64 `json:"chunk_cache_evictions"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// decodeStrict decodes JSON into v, rejecting unknown fields and
// trailing garbage — the codec both fuzzing and the server use.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second Decode must see EOF: one request per body.
	if dec.More() {
		return errors.New("query: trailing data after JSON value")
	}
	return nil
}

// DecodeSliceRequest decodes and validates a slice request.
func DecodeSliceRequest(r io.Reader) (*SliceRequest, error) {
	var req SliceRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeProvenanceRequest decodes and validates a provenance request.
func DecodeProvenanceRequest(r io.Reader) (*ProvenanceRequest, error) {
	var req ProvenanceRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}
