package query

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/store"
)

// The BenchmarkLifecycle* suite measures the fleet lifecycle layer:
// spill throughput under a live retention budget (the writer plans,
// journals, and unlinks trims inline with sealing) and the result
// cache's repeat-query latency over real HTTP.

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
	reg := NewRegistry([]string{root}, RegistryOptions{})
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
