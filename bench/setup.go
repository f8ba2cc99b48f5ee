package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/dift"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/query"
	"scaldift/internal/slicing"
	"scaldift/internal/vm"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measuring budget for the whole run
	trace    bool    // traced run: spans on, per-layer metrics out
	scale    float64 // 1 = reported scale
	clients  int     // closed-loop clients of the serve step
	root     string  // checkout root: the directory holding BENCHMARK.json
}

// quickScale is the smoke-test scale. Timings taken at it are never
// reported as results.
const quickScale = 0.02

// hugeBudget is sent as budget_chunk_loads with every query.
// SliceResponse.ChunkLoads stays 0 unless the query carries a budget,
// so the driver asks for one no query can exhaust: loads are counted
// and never refused.
const hugeBudget = int64(1) << 40

// firstCriterion is the lowest instance number a drawn criterion
// takes.
const firstCriterion = 16

// numChecks is the number of seeded small-closure criteria whose
// served PC sets are compared with the independent reference.
const numChecks = 64

// gate counts every checked operation of a run; failed/attempted is
// the run's fail share. A run with any failure exits non-zero.
type gate struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
	seen map[string]uint64
}

// check records one operation and, when it failed, why (the first
// few reasons are kept for the report).
func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted.Add(1)
	if ok {
		return
	}
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.msgs) < 10 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// same asserts that a count which is deterministic for a fixed seed
// reads the same on every repetition, and returns it.
func (g *gate) same(name string, v uint64) uint64 {
	g.mu.Lock()
	if g.seen == nil {
		g.seen = make(map[string]uint64)
	}
	first, ok := g.seen[name]
	if !ok {
		g.seen[name] = v
		first = v
	}
	g.mu.Unlock()
	g.check(first == v, "%s: %d on this repetition, %d on the first", name, v, first)
	return v
}

// counts returns the deterministic counts seen so far.
func (g *gate) counts() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.seen))
	for k, v := range g.seen {
		out[k] = v
	}
	return out
}

// checkCase is one served answer with a known-correct PC set.
type checkCase struct {
	req  *query.SliceRequest
	want []int32
}

// reference holds what setup learned from one inline, fully traced
// run of the program: the answers every later step is checked
// against, and the instance → PC table criteria are drawn from.
type reference struct {
	instructions uint64
	// pcs[tid][n] is the static PC of thread tid's n-th instruction
	// instance (index 0 unused), so a drawn criterion can carry its
	// PC the way a debugger's would. Without it the server resolves
	// the PC from the stored record, and instances whose record O1
	// elided would slice as a single node.
	pcs [][]int32
	// lastOut is the first-answer criterion: the newest `out` on
	// thread 0. A thread's newest instance is its `halt`, whose slice
	// is one node, so the driver names the last output instead, found
	// in the reference run's own event stream.
	lastOut query.Criterion
	// firstIn is thread 0's first input instance, where the traced
	// run's forward slice starts.
	firstIn ddg.ID
	// taintedOutputs is the number of output words the inline bool
	// engine labelled tainted (bool workloads only).
	taintedOutputs int
	checks         []checkCase
}

// env is the state one run of a workload shares between its steps.
type env struct {
	def  *workloadDef
	cfg  config
	w    *prog.Workload
	ref  *reference
	work string // scratch directory inside the checkout, removed at exit
	tr   *tracer
	gate *gate

	lineageChecked, lineageMismatch int
}

// setup is step 1: build the program and its inputs from the seed,
// make the scratch directory, and compute the reference answers.
func setup(def *workloadDef, cfg config, g *gate) (*env, error) {
	e := &env{def: def, cfg: cfg, gate: g}
	e.w = def.build(cfg.scale, cfg.seed)
	e.work = filepath.Join(cfg.root, "bench", "out", fmt.Sprintf("work-%s-%d", def.name, os.Getpid()))
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.work, "traces"), 0o755); err != nil {
		return nil, err
	}

	ref := &reference{}
	m := e.w.NewMachine()
	// The reference graph is inline and unoptimized: no recorder, no
	// elision, no store, no parallel slicer, no HTTP.
	tr := ontrac.New(e.w.Prog, ontrac.Unoptimized())
	m.AttachTool(tr.Tool())
	m.AttachTool(vm.ToolFunc(func(_ *vm.Machine, ev *vm.Event) {
		if ev.Blocked {
			return
		}
		for ev.TID >= len(ref.pcs) {
			ref.pcs = append(ref.pcs, []int32{-1})
		}
		ref.pcs[ev.TID] = append(ref.pcs[ev.TID], int32(ev.PC))
		if ev.TID == 0 && ev.Kind == vm.EvInput && ref.firstIn == 0 {
			ref.firstIn = ddg.MakeID(0, ev.ThreadSeq)
		}
		if ev.TID == 0 && ev.Kind == vm.EvOutput {
			pc := int32(ev.PC)
			ref.lastOut = query.Criterion{TID: 0, N: ev.ThreadSeq, PC: &pc}
		}
	}))
	var boolSink *dift.CollectSink[bool]
	if !def.lineage {
		boolSink = &dift.CollectSink[bool]{}
		eng := dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy())
		eng.AddSink(boolSink)
		m.AttachTool(eng)
	}
	res := m.Run()
	if res.Failed {
		return nil, fmt.Errorf("%s: reference run failed: %s", def.name, res.FailMsg)
	}
	if err := e.w.Check(m); err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", def.name, err)
	}
	ref.instructions = m.Steps()
	if ref.lastOut.N == 0 {
		return nil, fmt.Errorf("%s: thread 0 wrote no output", def.name)
	}
	for tid, p := range ref.pcs {
		if uint64(len(p)-1) != tr.LastID(tid).N() {
			return nil, fmt.Errorf("%s: thread %d: %d instances counted, tracer numbered %d",
				def.name, tid, len(p)-1, tr.LastID(tid).N())
		}
	}
	if boolSink != nil {
		for _, t := range boolSink.Outputs {
			if t {
				ref.taintedOutputs++
			}
		}
	}

	// Criteria early in the run have naturally small closures, so
	// their exact (unbounded) answers are cheap to compute twice.
	e.ref = ref
	rng := rand.New(rand.NewSource(int64(cfg.seed) ^ 0x5ca1d1f7))
	src := tr.Reader()
	for i := 0; i < numChecks; i++ {
		tid := 0
		span := 4096
		if def.mix.allThreads && i%16 == 15 {
			// A worker's first instructions already depend on the
			// whole input loop of thread 0, so these few are the
			// expensive ones; they cover the cross-thread hand-off.
			tid = 1 + rng.Intn(len(ref.pcs)-1)
			span = 64
		}
		crit := e.criterion(rng, tid, span)
		sl := slicing.Backward(src, e.w.Prog,
			[]slicing.Criterion{{ID: ddg.MakeID(crit.TID, crit.N), PC: *crit.PC}},
			slicing.Options{FollowControl: true})
		want := make([]int32, 0, len(sl.PCs))
		for pc := range sl.PCs {
			want = append(want, pc)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		ref.checks = append(ref.checks, checkCase{
			req: &query.SliceRequest{
				Trace:            def.name,
				Direction:        query.DirBackward,
				Criteria:         []query.Criterion{crit},
				FollowControl:    true,
				BudgetChunkLoads: hugeBudget,
			},
			want: want,
		})
	}
	return e, nil
}

// criterion draws a uniform instance among the first span instances
// of thread tid (span <= 0: the whole thread) from firstCriterion up,
// carrying its PC.
func (e *env) criterion(rng *rand.Rand, tid, span int) query.Criterion {
	ref := e.ref
	hi := len(ref.pcs[tid]) - 1
	if span > 0 && span < hi {
		hi = span
	}
	// A thread's first few instances store no record, so the store's
	// window starts just above them and a slice from one is empty.
	lo := min(firstCriterion, hi)
	n := lo + rng.Intn(hi-lo+1)
	pc := ref.pcs[tid][n]
	return query.Criterion{TID: tid, N: uint64(n), PC: &pc}
}

// timeSetup runs setup reps times and returns the last environment
// with the median wall, so one slow page fault does not set setup_s.
func timeSetup(def *workloadDef, cfg config, g *gate, reps int) (*env, float64, error) {
	var walls []float64
	var e *env
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		e, err = setup(def, cfg, g)
		if err != nil {
			return nil, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return e, median(walls), nil
}

// cleanup removes the run's scratch directory.
func (e *env) cleanup() {
	_ = os.RemoveAll(e.work) // scratch data; a leftover directory is harmless and git-ignored
}
