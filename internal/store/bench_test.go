package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// The BenchmarkStore* suite measures the persistence layer: spill
// throughput (a pre-recorded chunk stream through a fresh writer),
// cold-reopen backward-slice latency, and the parallel
// offline slicer's speedup over sequential traversal of the same
// reopened store — on PSum's main-thread-heavy closure and on a
// balanced synthetic 8-thread one.

// benchWorkload is the multi-thread trace the benches slice: parallel
// partial sums whose backward closure from the final output crosses
// every worker thread's full add chain.
func benchWorkload() *prog.Workload { return prog.PSum(4, 30000, 7) }

// chunkSink retains spilled chunks (bench-local mirror of the test
// sink in ddg).
type chunkSink struct{ chunks []ddg.RawChunk }

func (s *chunkSink) SpillChunk(ch ddg.RawChunk) { s.chunks = append(s.chunks, ch) }

var benchOnce struct {
	sync.Once
	chunks []ddg.RawChunk // the workload's spilled chunk stream
	bytes  uint64
}

// benchChunks records the bench workload once and captures its chunk
// stream (unoptimized: every dependence stored).
func benchChunks(b testing.TB) ([]ddg.RawChunk, uint64) {
	benchOnce.Do(func() {
		w := benchWorkload()
		off := ontrac.NewOffloaded(w.Prog, ontrac.Unoptimized(), pipeline.Options{})
		var sink chunkSink
		off.SpillTo(&sink)
		if res := ontrac.Trace(w.NewMachine(), off); res.Failed {
			b.Fatal(res.FailMsg)
		}
		benchOnce.chunks = sink.chunks
		benchOnce.bytes = off.Stats().BytesWritten
	})
	return benchOnce.chunks, benchOnce.bytes
}

// spillChunks writes the chunk stream through a fresh writer.
func spillChunks(b testing.TB, dir string, chunks []ddg.RawChunk) {
	w, err := Create(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for _, ch := range chunks {
		w.SpillChunk(ch)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStoreSpill(b *testing.B) {
	chunks, bytes := benchChunks(b)
	dir := b.TempDir()
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spillChunks(b, filepath.Join(dir, fmt.Sprint(i)), chunks)
	}
}

// benchStoreDir lazily materializes one spilled store for the read
// benches; TestMain removes it.
var benchStoreDir struct {
	sync.Once
	dir string
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchStoreDir.dir != "" {
		os.RemoveAll(benchStoreDir.dir)
	}
	os.Exit(code)
}

func benchStore(b testing.TB) string {
	benchStoreDir.Do(func() {
		chunks, _ := benchChunks(b)
		dir, err := os.MkdirTemp("", "scaldift-bench-store")
		if err != nil {
			b.Fatal(err)
		}
		spillChunks(b, dir, chunks)
		benchStoreDir.dir = dir
	})
	return benchStoreDir.dir
}

// benchCriterion returns the slicing start: the newest recorded
// instance of the main thread (the final output, whose closure spans
// all worker threads).
func benchCriterion(b testing.TB, r *Reader) slicing.Criterion {
	_, hi := r.Window(0)
	id := ddg.MakeID(0, hi)
	pc, ok := r.NodePC(id)
	if !ok {
		b.Fatal("no record at window top")
	}
	return slicing.Criterion{ID: id, PC: pc}
}

// coldSlice reopens the store from disk and runs one backward slice
// (workers <= 1: sequential).
func coldSlice(b testing.TB, dir string, workers int) *slicing.Slice {
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	w := benchWorkload()
	crit := benchCriterion(b, r)
	opts := slicing.Options{FollowControl: true}
	var s *slicing.Slice
	if workers <= 1 {
		s = slicing.Backward(r, w.Prog, []slicing.Criterion{crit}, opts)
	} else {
		s = slicing.ParallelBackward(r, w.Prog, []slicing.Criterion{crit}, opts, workers)
	}
	if s.Nodes < 1000 {
		b.Fatalf("closure too small to mean anything: %d nodes", s.Nodes)
	}
	return s
}

func benchReopenSlice(b *testing.B, workers int) {
	dir := benchStore(b)
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		nodes = coldSlice(b, dir, workers).Nodes
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(nodes*b.N)/el, "nodes/s")
	}
}

func BenchmarkStoreReopenBackwardSeq(b *testing.B) { benchReopenSlice(b, 1) }
func BenchmarkStoreParallelBackward(b *testing.B)  { benchReopenSlice(b, 2) }

// benchSyntheticStore spills a balanced 8-thread dependence stream:
// symmetric per-thread chains (two register deps per record, a
// cross-thread link every 64th record — the sparse cross-dependence
// shape of real per-thread traces), the workload ParallelBackward's
// per-thread sharding is built for. PSum's closure, by contrast, is
// dominated by the main thread's input loop — an Amdahl tail no
// traversal can parallelize away.
func benchSyntheticStore(t testing.TB) (string, *isa.Program) {
	const threads, perThread = 8, 60000
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompact(0)
	c.SetSpill(w)
	for tid := 0; tid < threads; tid++ {
		for n := uint64(1); n <= uint64(perThread); n++ {
			use := ddg.MakeID(tid, n)
			pc := int32((n % 97) + 1)
			var deps []ddg.Dep
			if n > 1 {
				deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
					Def: ddg.MakeID(tid, n-1), DefPC: pc - 1, Kind: ddg.Data})
			}
			if n > 3 {
				deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
					Def: ddg.MakeID(tid, n-3), DefPC: 2, Kind: ddg.Data})
			}
			if n > 5 && n%64 == 0 {
				deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
					Def: ddg.MakeID((tid+1)%threads, n-5), DefPC: 3, Kind: ddg.Data})
			}
			c.Append(use, pc, deps, 0)
		}
	}
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Any program works for the line mapping; the synthetic PCs fall
	// inside the PSum program's range.
	return dir, benchWorkload().Prog
}

// coldSliceAll reopens dir cold and slices from every thread's newest
// recorded instance at once (workers <= 1: sequential).
func coldSliceAll(t testing.TB, dir string, p *isa.Program, workers int) *slicing.Slice {
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var crits []slicing.Criterion
	for _, tid := range r.Threads() {
		_, hi := r.Window(tid)
		id := ddg.MakeID(tid, hi)
		pc, ok := r.NodePC(id)
		if !ok {
			t.Fatalf("tid %d: no record at window top", tid)
		}
		crits = append(crits, slicing.Criterion{ID: id, PC: pc})
	}
	opts := slicing.Options{FollowControl: true}
	if workers <= 1 {
		return slicing.Backward(r, p, crits, opts)
	}
	return slicing.ParallelBackward(r, p, crits, opts, workers)
}

// benchSyntheticSlice times cold whole-store slices of the balanced
// synthetic store: one worker against one per thread shard.
func benchSyntheticSlice(b *testing.B, workers int) {
	dir, p := benchSyntheticStore(b)
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		nodes = coldSliceAll(b, dir, p, workers).Nodes
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(nodes*b.N)/el, "nodes/s")
	}
}

func BenchmarkStoreSynthetic8BackwardSeq(b *testing.B)      { benchSyntheticSlice(b, 1) }
func BenchmarkStoreSynthetic8BackwardParallel(b *testing.B) { benchSyntheticSlice(b, 8) }
