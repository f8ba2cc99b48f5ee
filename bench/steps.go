package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/lineage"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/query"
	"scaldift/internal/store"
	"scaldift/internal/vm"
)

// shareServe is the part of the measuring budget step 6 gets; steps
// 2–5 share the rest, interleaved in rounds.
const shareServe = 0.4

// nativePerRound is how many native runs open each round; their
// median is the round's native wall.
const nativePerRound = 6

// repeat calls f until budget is spent and f ran at least min times.
func repeat(budget time.Duration, min int, f func()) {
	t0 := time.Now()
	for i := 0; i < min || time.Since(t0) < budget; i++ {
		f()
	}
}

// timings is what steps 2–6 measured in one pass.
type timings struct {
	native, trackTotal, traceTotal []time.Duration
	// Slowdowns are taken round by round, each analysed run against
	// the native runs made just before it, so a shift in the host's
	// speed between rounds cancels out of the ratio.
	trackSlowdown, traceSlowdown []float64
	firstAnswer                  []time.Duration
	refresh                      []time.Duration
	serve                        serveOut
	track                        trackOut // last repetition
	trace                        traceOut // last repetition
}

// runSteps runs steps 2–6 inside budget. With e.tr set, every call
// into a layer is recorded as a span.
//
// Steps 2–5 run interleaved: one round is native runs, a tracked run,
// a traced run, and a first answer from the directory that run wrote.
// On a shared host the speed of one core shifts by tens of percent
// for seconds at a time; rounds make every step sample the whole
// run's window instead of one stretch of it, so the medians of
// different steps describe the same mix of conditions.
func (e *env) runSteps(budget time.Duration) (*timings, error) {
	t := &timings{}
	var err error
	repeat(time.Duration(float64(budget)*(1-shareServe)), 3, func() {
		if err != nil {
			return
		}
		// Step 2: native. The collection first keeps the previous
		// round's garbage from being marked, on the other core, while
		// the single-threaded runs are timed.
		runtime.GC()
		var walls []float64
		for i := 0; i < nativePerRound; i++ {
			d := e.nativeRep()
			t.native = append(t.native, d)
			walls = append(walls, d.Seconds())
		}
		native := median(walls)

		// Step 3: offloaded DIFT with shipped defaults.
		t.track = e.trackRep()
		t.trackTotal = append(t.trackTotal, t.track.total)
		t.trackSlowdown = append(t.trackSlowdown, t.track.exec.Seconds()/native)

		// Step 4: offloaded ONTRAC into a real store.
		if t.trace, err = e.traceRep(nil); err != nil {
			return
		}
		t.traceTotal = append(t.traceTotal, t.trace.total)
		t.traceSlowdown = append(t.traceSlowdown, t.trace.exec.Seconds()/native)

		// Step 5: first answer from that directory, through a new
		// registry.
		var fa firstAnswer
		if fa, err = e.firstAnswerRep(nil); err != nil {
			return
		}
		t.firstAnswer = append(t.firstAnswer, fa.wall)
		t.refresh = append(t.refresh, fa.refresh)
	})
	if err != nil {
		return nil, err
	}

	// Step 6: closed-loop serving over the last round's directory.
	t.serve, err = e.serve(time.Duration(float64(budget) * shareServe))
	return t, err
}

// nativeRep runs the program with no tool attached.
func (e *env) nativeRep() time.Duration {
	m := e.w.NewMachine()
	sp := e.tr.start("vm.run_native", nil)
	t0 := time.Now()
	res := m.Run()
	d := time.Since(t0)
	sp.end()
	e.checkRun(m, res)
	return d
}

// checkRun gates one VM run on the workload's own output check.
func (e *env) checkRun(m *vm.Machine, res *vm.Result) {
	ok := !res.Failed && e.w.Check(m) == nil
	e.gate.check(ok, "%s: VM run failed its self-check (%s)", e.def.name, res.FailMsg)
	e.gate.same("vm.instructions", m.Steps())
}

// trackOut is one offloaded-DIFT repetition: the two walls and the
// pipeline's own counters.
type trackOut struct {
	exec, total  time.Duration
	taintedWords int
	bddNodes     int
}

// offloadedDIFT runs m under a fresh pipeline with shipped defaults.
// exec ends when m.Run returns, total when Close has drained the
// consumer and every sink has fired.
func offloadedDIFT[L comparable](e *env, dom dift.Domain[L], sink dift.Sink[L], m *vm.Machine, parent *span) trackOut {
	p := pipeline.New(dom, dift.DefaultPolicy(), pipeline.Options{})
	p.AddSink(sink)
	t0 := time.Now()
	sp := e.tr.start("vm.run_recorded", parent)
	p.Attach(m)
	res := m.Run()
	sp.end()
	exec := time.Since(t0)
	sp = e.tr.start("pipeline.close", parent)
	p.Close()
	sp.end()
	total := time.Since(t0)
	e.checkRun(m, res)
	e.gate.same("pipeline.events", p.Events())
	return trackOut{exec: exec, total: total, taintedWords: p.TaintedWords()}
}

// lineageBits sizes the lineage universe for the workload's inputs.
func (e *env) lineageBits() int {
	return lineage.BitsFor(len(e.w.Inputs[prog.ChIn]) + 8)
}

// trackRep is one repetition of step 3, with its labels checked
// against the workload's ground truth (lineage) or the inline
// engine's tainted-output count (bool).
func (e *env) trackRep() trackOut {
	root := e.tr.start("track", nil)
	defer root.end()
	m := e.w.NewMachine()
	if !e.def.lineage {
		sink := &dift.CollectSink[bool]{}
		out := offloadedDIFT[bool](e, dift.Bool{}, sink, m, root)
		tainted := 0
		for _, t := range sink.Outputs {
			if t {
				tainted++
			}
		}
		e.gate.check(tainted == e.ref.taintedOutputs,
			"%s: offloaded bool engine tainted %d outputs, inline engine %d", e.def.name, tainted, e.ref.taintedOutputs)
		return out
	}
	d := lineage.NewLockedDomain(e.lineageBits())
	rec := lineage.NewRecorder(d.Domain)
	out := offloadedDIFT[bdd.Ref](e, d, rec, m, root)
	out.bddNodes = d.Manager().NumNodes()
	e.checkLineage(rec)
	return out
}

// checkLineage compares every recorded output's lineage set with the
// workload's ground truth, word for word.
func (e *env) checkLineage(rec *lineage.Recorder) {
	want := e.w.WantLineage
	var outs []int
	for i, o := range rec.Outputs {
		if o.Ch == prog.ChOut {
			outs = append(outs, i)
		}
	}
	e.gate.check(len(outs) == len(want), "%s: %d outputs recorded, %d expected", e.def.name, len(outs), len(want))
	for k, i := range outs {
		if k >= len(want) {
			break
		}
		ok := lineage.SortedEquals(rec.Lineage(i).Elements, want[k])
		e.lineageChecked++
		if !ok {
			e.lineageMismatch++
		}
		e.gate.check(ok, "%s: output %d: lineage differs from the ground truth", e.def.name, k)
	}
}

// traceOut is one offloaded-ONTRAC repetition.
type traceOut struct {
	exec, total time.Duration
	diskBytes   uint64
}

// traceDir is where step 4 records and steps 5–6 read. Its base name
// is the trace id the registry assigns.
func (e *env) traceDir() string { return filepath.Join(e.work, "traces", e.def.name) }

// traceRep is one repetition of step 4: record through the offloaded
// ONTRAC stage into a fresh store directory. exec ends when m.Run
// returns, total when the writer is closed and the directory can be
// reopened.
func (e *env) traceRep(parent *span) (traceOut, error) {
	dir := e.traceDir()
	sp := e.tr.start("bench.prepare", parent)
	wr, err := store.Create(store.Options{Dir: dir})
	if err != nil {
		return traceOut{}, err
	}
	off := ontrac.NewOffloaded(e.w.Prog, e.def.trace, pipeline.Options{})
	off.SpillTo(wr)
	m := e.w.NewMachine()
	sp.end()

	root := e.tr.start("trace", parent)
	t0 := time.Now()
	sp = e.tr.start("vm.run_recorded", root)
	off.Attach(m)
	res := m.Run()
	sp.end()
	exec := time.Since(t0)
	sp = e.tr.start("ontrac.close", root)
	off.Close()
	sp.end()
	sp = e.tr.start("store.writer_close", root)
	err = wr.Close()
	sp.end()
	total := time.Since(t0)
	root.end()
	if err != nil {
		return traceOut{}, fmt.Errorf("%s: closing the trace store: %w", e.def.name, err)
	}
	sp = e.tr.start("bench.verify", parent)
	defer sp.end()
	e.checkRun(m, res)

	disk, err := dirBytes(dir)
	if err != nil {
		return traceOut{}, err
	}
	st := off.Stats()
	e.gate.same("ontrac.deps_seen", st.DepsSeen)
	e.gate.same("ontrac.deps_stored", st.DepsStored)
	e.gate.same("ddg.chunks", wr.ChunksSpilled())
	e.gate.same("ddg.bytes", wr.BytesSpilled())
	return traceOut{exec: exec, total: total, diskBytes: e.gate.same("store.disk_bytes", disk)}, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += uint64(info.Size())
		}
	}
	return n, nil
}

// service is a query server over the run's trace root, listening on a
// loopback port, with the client that talks to it.
type service struct {
	reg     *query.Registry
	srv     *http.Server
	hc      *http.Client
	cl      *query.Client
	served  chan error
	refresh time.Duration
}

// startService does what a freshly started daemon does before its
// first answer: scan the root, open the store, attach the program,
// listen. Registry and server options are the shipped defaults.
func (e *env) startService(parent *span) (*service, error) {
	sp := e.tr.start("query.refresh", parent)
	t0 := time.Now()
	reg := query.NewRegistry([]string{filepath.Join(e.work, "traces")}, query.RegistryOptions{})
	ids, err := reg.Refresh()
	refresh := time.Since(t0)
	sp.end()
	if err == nil && !slices.Contains(ids, e.def.name) {
		err = fmt.Errorf("refresh registered %v, want %q", ids, e.def.name)
	}
	if err == nil {
		sp = e.tr.start("query.attach_program", parent)
		// Attach with the options the trace was recorded with: the
		// static reconstructor replays exactly the elisions those
		// options made, no others.
		err = reg.AttachProgram(e.def.name, e.w.Prog, e.def.trace)
		sp.end()
	}
	if err != nil {
		_ = reg.Close() // the refresh or attach error is the one to report
		return nil, fmt.Errorf("%s: starting the query service: %w", e.def.name, err)
	}

	sp = e.tr.start("query.listen", parent)
	defer sp.end()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = reg.Close() // the listen error is the one to report
		return nil, err
	}
	s := &service{
		reg:     reg,
		srv:     &http.Server{Handler: query.NewServer(reg, query.ServerOptions{}).Handler()},
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.cfg.clients}},
		served:  make(chan error, 1),
		refresh: refresh,
	}
	s.cl = query.NewClient("http://"+ln.Addr().String(), s.hc)
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until its goroutine has ended.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	if cerr := s.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// firstAnswer is one repetition of step 5.
type firstAnswer struct {
	wall, refresh time.Duration
}

// firstAnswerRep is one repetition of step 5: from a closed writer to
// the first served answer, through a new registry (cold reader index
// and chunk cache; the OS page cache is warm, the files were just
// written).
func (e *env) firstAnswerRep(parent *span) (firstAnswer, error) {
	root := e.tr.start("first_answer", parent)
	t0 := time.Now()
	svc, err := e.startService(root)
	if err != nil {
		return firstAnswer{}, err
	}
	sp := e.tr.start("query.first_slice", root)
	resp, err := svc.cl.Slice(context.Background(), &query.SliceRequest{
		Trace:            e.def.name,
		Direction:        query.DirBackward,
		Criteria:         []query.Criterion{e.ref.lastOut},
		FollowControl:    true,
		MaxNodes:         firstAnswerMaxNodes,
		BudgetChunkLoads: hugeBudget,
	})
	sp.end()
	wall := time.Since(t0)
	root.end()
	e.gate.check(err == nil && answerComplete(resp) && resp.Nodes > 1,
		"%s: first answer: %v", e.def.name, answerProblem(resp, err))
	stopErr := svc.stop()
	return firstAnswer{wall: wall, refresh: svc.refresh}, stopErr
}

// answerComplete reports whether the server finished the traversal it
// was asked for. truncated_at_window is not a failure: closed,
// untrimmed stores report it whenever a slice reaches a thread's
// first instances, because the store's window starts at the first
// instance that stored a record (3–6), not at 1.
func answerComplete(r *query.SliceResponse) bool {
	return r != nil && !r.Interrupted && !r.BudgetExhausted
}

func answerProblem(r *query.SliceResponse, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case r == nil:
		return "no answer"
	case r.Interrupted:
		return "interrupted"
	case r.BudgetExhausted:
		return "budget_exhausted"
	}
	return fmt.Sprintf("%d nodes", r.Nodes)
}

// Request kinds of the serve mix.
const (
	kindBackward = iota
	kindForward
	kindProvenance
	kindHot
)

// sample is one timed request.
type sample struct {
	latency    time.Duration
	kind       int
	ok         bool
	cached     bool
	truncated  bool
	wallMS     float64
	chunkLoads int64
}

// serveOut is what step 6 measured.
type serveOut struct {
	samples  []sample
	wall     time.Duration
	rejected int64
}

// requests draws one client's request stream from its own seeded
// generator.
type requests struct {
	e   *env
	rng *rand.Rand
	hot []query.Criterion
}

// next draws the next request of the mix.
func (q *requests) next() (kind int, crit query.Criterion) {
	mix := q.e.def.mix
	x := q.rng.Float64()
	switch {
	case x < mix.hot:
		return kindHot, q.hot[q.rng.Intn(len(q.hot))]
	case x < mix.hot+mix.forward:
		kind = kindForward
	case x < mix.hot+mix.forward+mix.provenance:
		kind = kindProvenance
	default:
		kind = kindBackward
	}
	tid := 0
	if mix.allThreads {
		tid = q.rng.Intn(len(q.e.ref.pcs))
	}
	return kind, q.e.criterion(q.rng, tid, 0)
}

// send performs one request of the mix and classifies the answer.
func (e *env) send(cl *query.Client, kind int, crit query.Criterion) sample {
	ctx := context.Background()
	var resp *query.SliceResponse
	var err error
	t0 := time.Now()
	if kind == kindProvenance {
		var prov *query.ProvenanceResponse
		prov, err = cl.Provenance(ctx, &query.ProvenanceRequest{
			Trace:            e.def.name,
			Criteria:         []query.Criterion{crit},
			MaxNodes:         serveMaxNodes,
			BudgetChunkLoads: hugeBudget,
		})
		if err == nil {
			resp = &prov.Slice
		}
	} else {
		dir := query.DirBackward
		if kind == kindForward {
			dir = query.DirForward
		}
		resp, err = cl.Slice(ctx, &query.SliceRequest{
			Trace:            e.def.name,
			Direction:        dir,
			Criteria:         []query.Criterion{crit},
			FollowControl:    true,
			MaxNodes:         serveMaxNodes,
			BudgetChunkLoads: hugeBudget,
		})
	}
	s := sample{latency: time.Since(t0), kind: kind}
	// A bounded answer is only checked for completeness: the parallel
	// slicers enforce max_nodes cooperatively, so where exactly the
	// cut falls differs between runs.
	s.ok = err == nil && answerComplete(resp) && resp.Nodes >= 1
	e.gate.check(s.ok, "%s: served query kind %d from %d:%d: %v", e.def.name, kind, crit.TID, crit.N, answerProblem(resp, err))
	if resp != nil {
		s.cached, s.truncated = resp.Cached, resp.TruncatedAtWindow
		s.wallMS, s.chunkLoads = resp.WallMillis, resp.ChunkLoads
	}
	return s
}

// serve is step 6: cfg.clients closed-loop clients, each sending its
// next request when the previous answer arrives, for budget after a
// warm-up, then the exact-answer checks through the same server.
func (e *env) serve(budget time.Duration) (serveOut, error) {
	root := e.tr.start("serve", nil)
	defer root.end()
	svc, err := e.startService(root)
	if err != nil {
		return serveOut{}, err
	}

	hotRng := rand.New(rand.NewSource(int64(e.cfg.seed) ^ 0x407))
	hot := make([]query.Criterion, hotSetSize)
	for i := range hot {
		tid := 0
		if e.def.mix.allThreads {
			tid = hotRng.Intn(len(e.ref.pcs))
		}
		hot[i] = e.criterion(hotRng, tid, 0)
	}
	warm := 100
	if e.cfg.scale < 1 {
		warm = 10
	}

	sp := e.tr.start("query.closed_loop", root)
	per := make([][]sample, e.cfg.clients)
	var warmed, done sync.WaitGroup
	start := make(chan struct{})
	var deadline time.Time
	for c := 0; c < e.cfg.clients; c++ {
		warmed.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			q := &requests{e: e, rng: rand.New(rand.NewSource(int64(e.cfg.seed)<<8 + int64(c))), hot: hot}
			for i := 0; i < warm; i++ {
				e.send(svc.cl, kindBackward, q.e.criterion(q.rng, 0, 0))
			}
			warmed.Done()
			<-start
			for time.Now().Before(deadline) {
				kind, crit := q.next()
				per[c] = append(per[c], e.send(svc.cl, kind, crit))
			}
		}(c)
	}
	warmed.Wait()
	t0 := time.Now()
	deadline = t0.Add(budget)
	close(start)
	done.Wait()
	out := serveOut{wall: time.Since(t0)}
	sp.end()
	for _, s := range per {
		out.samples = append(out.samples, s...)
	}

	// The correctness gate proper: exact PC sets of the seeded
	// small-closure criteria, served, against the inline reference.
	sp = e.tr.start("query.exact_checks", root)
	for i, c := range e.ref.checks {
		resp, err := svc.cl.Slice(context.Background(), c.req)
		ok := err == nil && answerComplete(resp) && slices.Equal(resp.PCs, c.want)
		e.gate.check(ok, "%s: check %d (%d:%d): served PC set differs from the reference (%v)",
			e.def.name, i, c.req.Criteria[0].TID, c.req.Criteria[0].N, answerProblem(resp, err))
	}
	sp.end()

	if st, err := svc.cl.Stats(context.Background()); err == nil {
		out.rejected = st.Rejected
	}
	return out, svc.stop()
}
