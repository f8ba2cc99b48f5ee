package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"scaldift/internal/benchfp"
	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// The BenchmarkStore* suite measures the persistence layer: spill
// throughput (a pre-recorded chunk stream through a fresh writer),
// cold-reopen backward-slice latency, and the parallel
// offline slicer's speedup over sequential traversal of the same
// reopened store.
//
// TestWriteBenchStoreJSON (env STORE_BENCH_JSON=1) writes
// BENCH_store.json at the repo root.

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
	events uint64
}

// benchChunks records the bench workload once and captures its chunk
// stream (unoptimized: every dependence stored).
func benchChunks(b testing.TB) ([]ddg.RawChunk, uint64) {
	benchOnce.Do(func() {
		w := benchWorkload()
		m := w.NewMachine()
		tr := ontrac.New(w.Prog, ontrac.Unoptimized())
		var sink chunkSink
		tr.Buffer().SetSpill(&sink)
		m.AttachTool(tr.Tool())
		if res := m.Run(); res.Failed {
			b.Fatal(res.FailMsg)
		}
		tr.Buffer().Flush()
		benchOnce.chunks = sink.chunks
		benchOnce.bytes = tr.Buffer().BytesWritten()
		benchOnce.events = m.Steps()
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
	r, err := Open(dir, ReaderOptions{CacheChunks: 64})
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

// --- BENCH_store.json ---

type storeBenchReport struct {
	GoMaxProcs int                  `json:"gomaxprocs"`
	Host       benchfp.Host         `json:"host"`
	Note       string               `json:"note"`
	Workload   storeBenchWorkload   `json:"workload"`
	Spill      []storeBenchSpill    `json:"spill"`
	Reopen     storeBenchReopen     `json:"cold_reopen"`
	Parallel   []storeBenchParallel `json:"parallel_backward"`
}

type storeBenchWorkload struct {
	Name       string  `json:"name"`
	Events     uint64  `json:"events"`
	TraceBytes uint64  `json:"trace_bytes"`
	Chunks     int     `json:"chunks"`
	BytesInstr float64 `json:"bytes_per_instr"`
}

type storeBenchSpill struct {
	Mode       string  `json:"mode"`
	WallS      float64 `json:"wall_s"`
	MBPerSec   float64 `json:"mb_per_sec"`
	ChunksPerS float64 `json:"chunks_per_sec"`
}

type storeBenchReopen struct {
	WallS      float64 `json:"wall_s"`
	SliceNodes int     `json:"slice_nodes"`
	SliceEdges int     `json:"slice_edges"`
}

type storeBenchParallel struct {
	Trace            string  `json:"trace"`
	Mode             string  `json:"mode"` // sequential | parallel
	Shards           int     `json:"shards"`
	WallS            float64 `json:"wall_s"`
	SpeedupVsSeq     float64 `json:"speedup_vs_seq,omitempty"`
	CriticalPathS    float64 `json:"critical_path_s,omitempty"`
	SustainedSpeedup float64 `json:"sustained_speedup,omitempty"`
}

func bestOf(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		runtime.GC() // start each rep from the same heap state
		start := time.Now()
		f()
		if el := time.Since(start).Seconds(); best == 0 || el < best {
			best = el
		}
	}
	return best
}

// benchSyntheticStore spills a balanced 8-thread dependence stream:
// symmetric per-thread chains (two register deps per record, a
// cross-thread link every 64th record — the sparse cross-dependence
// shape of real per-thread traces), the workload ParallelBackward's
// per-thread sharding is built for. PSum's closure, by contrast, is
// dominated by the main thread's input loop — an Amdahl tail no
// traversal can parallelize away.
func benchSyntheticStore(t *testing.T) (string, *isa.Program) {
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

// coldSliceAll reopens dir cold and slices from every listed thread's
// newest recorded instance at once.
func coldSliceAll(t testing.TB, dir string, p *isa.Program, tids []int, workers int) *slicing.Slice {
	r, err := Open(dir, ReaderOptions{CacheChunks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if tids == nil {
		tids = r.Threads()
	}
	var crits []slicing.Criterion
	for _, tid := range tids {
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

// shardWorkWalls measures each thread shard's slice work in
// isolation: first a plain traversal collects the closure's node set
// per thread, then every thread's nodes are re-expanded on a fresh
// cold reader, timed alone. The walls are what each ParallelBackward
// worker would spend on dedicated hardware, free of the 1-CPU
// scheduler's interleaving — the per-stage measurement convention of
// the other BENCH files.
func shardWorkWalls(t *testing.T, dir string, p *isa.Program) map[int]float64 {
	r, err := Open(dir, ReaderOptions{CacheChunks: 64})
	if err != nil {
		t.Fatal(err)
	}
	perTid := make(map[int][]ddg.ID)
	visited := make(map[ddg.ID]bool)
	var stack []ddg.ID
	for _, tid := range r.Threads() {
		_, hi := r.Window(tid)
		id := ddg.MakeID(tid, hi)
		visited[id] = true
		stack = append(stack, id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		perTid[id.TID()] = append(perTid[id.TID()], id)
		r.DepsOf(id, func(d ddg.Dep) {
			if d.Def != 0 && !visited[d.Def] {
				visited[d.Def] = true
				stack = append(stack, d.Def)
			}
		})
	}
	r.Close()

	walls := make(map[int]float64, len(perTid))
	for tid, ids := range perTid {
		rc, err := Open(dir, ReaderOptions{CacheChunks: 64})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := time.Now()
		for _, id := range ids {
			rc.DepsOf(id, func(ddg.Dep) {})
		}
		walls[tid] = time.Since(start).Seconds()
		rc.Close()
	}
	return walls
}

// measureParallel runs the cold whole-store slice sequentially and
// through ParallelBackward (one worker goroutine per thread shard),
// recording the measured wall speedup, and derives the sustained
// speedup from per-shard work measured in isolation: sum over max is
// the bottleneck-shard ratio a parallel host converges to.
func measureParallel(t *testing.T, reps int, trace, dir string, p *isa.Program) []storeBenchParallel {
	seqWall := bestOf(reps, func() { coldSliceAll(t, dir, p, nil, 1) })
	wall := bestOf(reps, func() { coldSliceAll(t, dir, p, nil, 2) })
	walls := shardWorkWalls(t, dir, p)
	var sum, max float64
	for _, w := range walls {
		sum += w
		if w > max {
			max = w
		}
	}
	return []storeBenchParallel{
		{Trace: trace, Mode: "sequential", Shards: 1, WallS: seqWall},
		{
			Trace:            trace,
			Mode:             "parallel",
			Shards:           len(walls),
			WallS:            wall,
			SpeedupVsSeq:     seqWall / wall,
			CriticalPathS:    max,
			SustainedSpeedup: sum / max,
		},
	}
}

func TestWriteBenchStoreJSON(t *testing.T) {
	if os.Getenv("STORE_BENCH_JSON") == "" {
		t.Skip("set STORE_BENCH_JSON=1 to generate BENCH_store.json")
	}
	const reps = 5
	chunks, bytes := benchChunks(t)
	report := storeBenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       benchfp.Current(),
		Note: "Persistent segmented trace store. spill = writing the workload's pre-recorded " +
			"chunk stream through a fresh store; " +
			"cold_reopen = Open from disk + one whole-execution backward slice with a cold " +
			"chunk cache; parallel_backward = cold whole-store slices from every thread's " +
			"newest instance, sequential Backward vs ParallelBackward (one goroutine per " +
			"thread shard). speedup_vs_seq is measured wall clock ON THIS 1-CPU HOST " +
			"(gomaxprocs 1): concurrent workers cannot beat wall clock here, so any win is " +
			"sharded-visited-set locality. sustained_speedup is the bottleneck-shard ratio " +
			"sum/max of per-shard slice work, each shard's closure expansion measured in " +
			"ISOLATION on a cold reader (critical_path_s = the slowest shard) — the " +
			"per-stage measurement convention BENCH_ontrac/BENCH_pipeline use on this " +
			"1-CPU host; it excludes cross-shard handoff, which the differential suite's " +
			"ParallelBackward-equality checks keep honest. psum4's closure is ~62% " +
			"main-thread (input loop: an Amdahl tail); synthetic8 is the balanced 8-chain " +
			"shape the per-thread sharding targets.",
		Workload: storeBenchWorkload{
			Name:       "psum4",
			Events:     benchOnce.events,
			TraceBytes: bytes,
			Chunks:     len(chunks),
			BytesInstr: float64(bytes) / float64(benchOnce.events),
		},
	}

	spillDir := t.TempDir()
	i := 0
	wall := bestOf(reps, func() {
		spillChunks(t, filepath.Join(spillDir, fmt.Sprint(i)), chunks)
		i++
	})
	report.Spill = []storeBenchSpill{{
		Mode:       "sync",
		WallS:      wall,
		MBPerSec:   float64(bytes) / (1 << 20) / wall,
		ChunksPerS: float64(len(chunks)) / wall,
	}}

	dir := benchStore(t)
	var s *slicing.Slice
	seqWall := bestOf(reps, func() { s = coldSlice(t, dir, 1) })
	report.Reopen = storeBenchReopen{WallS: seqWall, SliceNodes: s.Nodes, SliceEdges: s.Edges}

	report.Parallel = measureParallel(t, reps, "psum4", dir, benchWorkload().Prog)
	synDir, synProg := benchSyntheticStore(t)
	report.Parallel = append(report.Parallel, measureParallel(t, reps, "synthetic8", synDir, synProg)...)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_store.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_store.json: %s", data)
}
