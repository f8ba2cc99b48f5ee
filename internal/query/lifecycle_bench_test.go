package query

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"scaldift/internal/benchfp"
	"scaldift/internal/ddg"
	"scaldift/internal/store"
)

// The BenchmarkLifecycle* suite measures the fleet lifecycle layer:
// spill throughput under a live retention budget (the writer plans,
// journals, and unlinks trims inline with sealing) and the result
// cache's repeat-query latency over real HTTP.
//
// TestWriteBenchLifecycleJSON (env LIFECYCLE_BENCH_JSON=1) writes
// BENCH_lifecycle.json at the repo root.

// lifecycleSink captures a chunk stream for replay through writers.
type lifecycleSink struct{ chunks []ddg.RawChunk }

func (s *lifecycleSink) SpillChunk(ch ddg.RawChunk) { s.chunks = append(s.chunks, ch) }

var lifecycleOnce struct {
	sync.Once
	chunks []ddg.RawChunk
	bytes  uint64
}

// lifecycleChunks records a 4-thread chain stream once (~hundreds of
// chunks, enough for retention to have many sealed victims).
func lifecycleChunks() ([]ddg.RawChunk, uint64) {
	lifecycleOnce.Do(func() {
		var sink lifecycleSink
		c := ddg.NewCompactSized(0, 64)
		c.SetSpill(&sink)
		// Interleave threads so their segments alternate in global
		// append order and a byte budget leaves every thread a suffix.
		for n := uint64(1); n <= 20000; n++ {
			for tid := 0; tid < 4; tid++ {
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
		c.Flush()
		lifecycleOnce.chunks = sink.chunks
		lifecycleOnce.bytes = c.BytesWritten()
	})
	return lifecycleOnce.chunks, lifecycleOnce.bytes
}

// spillRetained replays the stream through a writer holding a byte
// budget, so sealing continuously plans and applies trims. Returns
// how many segments retention removed.
func spillRetained(b testing.TB, dir string, chunks []ddg.RawChunk) uint64 {
	w, err := store.Create(store.Options{
		Dir:          dir,
		SegmentBytes: 16 << 10,
		Retain:       store.Retention{MaxBytes: 64 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ch := range chunks {
		w.SpillChunk(ch)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return w.SegmentsTrimmed()
}

func BenchmarkLifecycleRetentionSpill(b *testing.B) {
	chunks, bytes := lifecycleChunks()
	dir := b.TempDir()
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	var trimmed uint64
	for i := 0; i < b.N; i++ {
		trimmed = spillRetained(b, filepath.Join(dir, "r", time.Now().Format("150405.000000000")), chunks)
	}
	if trimmed == 0 {
		b.Fatal("retention budget never produced a trim; bench measures nothing")
	}
	b.ReportMetric(float64(trimmed), "trims/op")
}

// lifecycleService stands up one closed retained store behind a real
// HTTP server and returns a client plus the slice request whose
// answer the cache memoizes.
func lifecycleService(b testing.TB) (*Client, *SliceRequest, func()) {
	chunks, _ := lifecycleChunks()
	root := b.TempDir()
	spillRetained(b, filepath.Join(root, "run"), chunks)
	reg := NewRegistry([]string{root}, RegistryOptions{CacheChunks: 64})
	if _, err := reg.Refresh(); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, ServerOptions{}).Handler())
	cl := NewClient(srv.URL, srv.Client())
	req := &SliceRequest{Trace: "run", Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}, {TID: 1}, {TID: 2}, {TID: 3}}}
	return cl, req, func() { srv.Close(); reg.Close() }
}

func BenchmarkLifecycleCacheHit(b *testing.B) {
	cl, req, stop := lifecycleService(b)
	defer stop()
	ctx := context.Background()
	// Warm: the first query computes and fills the cache.
	if _, err := cl.Slice(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Slice(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("repeat query missed the result cache")
		}
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "queries/s")
	}
}

// --- BENCH_lifecycle.json ---

type lifecycleBenchReport struct {
	GoMaxProcs int                 `json:"gomaxprocs"`
	Host       benchfp.Host        `json:"host"`
	Note       string              `json:"note"`
	Retention  lifecycleBenchSpill `json:"retention_spill"`
	Cache      lifecycleBenchCache `json:"cache"`
}

type lifecycleBenchSpill struct {
	TraceBytes      uint64  `json:"trace_bytes"`
	Chunks          int     `json:"chunks"`
	WallS           float64 `json:"wall_s"`
	MBPerSec        float64 `json:"mb_per_sec"`
	SegmentsTrimmed uint64  `json:"segments_trimmed"`
}

type lifecycleBenchCache struct {
	ColdWallS     float64 `json:"cold_wall_s"`
	HitWallS      float64 `json:"hit_wall_s"`
	HitQueriesPS  float64 `json:"hit_queries_per_sec"`
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
}

func TestWriteBenchLifecycleJSON(t *testing.T) {
	if os.Getenv("LIFECYCLE_BENCH_JSON") == "" {
		t.Skip("set LIFECYCLE_BENCH_JSON=1 to generate BENCH_lifecycle.json")
	}
	const reps = 5
	chunks, bytes := lifecycleChunks()

	report := lifecycleBenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       benchfp.Current(),
		Note: "Fleet lifecycle layer. retention_spill = replaying a pre-recorded 4-thread " +
			"chunk stream through a writer holding a 64KiB byte budget over 16KiB segments, " +
			"so every seal plans, journals (manifest first, unlink second), and applies " +
			"trims inline; cache = one slice request (4 criteria, whole-store closure) over " +
			"real HTTP against a closed trace, cold compute vs repeat served from the " +
			"generation-keyed LRU result cache. speedup_vs_cold is the dashboard repeat-" +
			"query win; any trim or seal bumps the manifest generation and invalidates " +
			"naturally.",
	}

	dirs := 0
	spillDir := t.TempDir()
	var trimmed uint64
	wall := bestOf(reps, func() {
		trimmed = spillRetained(t, filepath.Join(spillDir, "r", time.Now().Format("150405.000000000")), chunks)
		dirs++
	})
	report.Retention = lifecycleBenchSpill{
		TraceBytes:      bytes,
		Chunks:          len(chunks),
		WallS:           wall,
		MBPerSec:        float64(bytes) / (1 << 20) / wall,
		SegmentsTrimmed: trimmed,
	}

	cl, req, stop := lifecycleService(t)
	defer stop()
	ctx := context.Background()
	cold, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first query claims a cache hit")
	}
	report.Cache.ColdWallS = cold.WallMillis / 1e3

	const hitBatch = 200
	hitWall := bestOf(reps, func() {
		for i := 0; i < hitBatch; i++ {
			resp, err := cl.Slice(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Cached {
				t.Fatal("repeat query missed the result cache")
			}
		}
	})
	report.Cache.HitWallS = hitWall / hitBatch
	report.Cache.HitQueriesPS = hitBatch / hitWall
	report.Cache.SpeedupVsCold = report.Cache.ColdWallS / report.Cache.HitWallS

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_lifecycle.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_lifecycle.json: %s", data)
}

// bestOf mirrors the store bench convention: best wall of reps runs,
// each from a settled heap.
func bestOf(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		f()
		if el := time.Since(start).Seconds(); best == 0 || el < best {
			best = el
		}
	}
	return best
}
