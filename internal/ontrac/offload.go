package ontrac

import (
	"sort"

	"scaldift/internal/cdep"
	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/pipeline"
	"scaldift/internal/vm"
)

// Offloaded is ONTRAC's dependence tracing run downstream of the
// execution thread, on the same batched recorder/consumer machinery
// as the DIFT pipeline (internal/pipeline): execution pays one struct
// copy per instruction, and the dependence work happens on the
// consumer goroutine plus a worker pool. Per window:
//
//  1. extract (workers, one per thread chain): register dependences
//     and control parents come from thread-private state
//     (ddg.ThreadExtractor over cdep per-thread stacks), safely in
//     parallel across threads;
//  2. merge (consumer): the window's events walk in global Seq order
//     through the shared memory-tag resolver — cross-thread memory
//     dependences resolve exactly as inline — and through the
//     unchanged Tracer elision core (T1/T2/O1/O2/O3), whose
//     surviving records stage per thread;
//  3. append (workers): each thread's staged records encode into its
//     own ddg.Sharded compact shard in parallel.
//
// Because the elision core runs in the inline tracer's event order
// and per-thread chunk encoding is identical, the offloaded stage
// produces the same stats, bytes, and slices as the inline tracer —
// the differential suite in offload_test.go holds it to exactly that.
//
// One semantic gap versus a lone Compact: with BufferBytes > 0 each
// per-thread shard rings over the full capacity independently,
// instead of one global ring over cross-thread append order.
type Offloaded struct {
	prog *isa.Program
	opts Options
	popt pipeline.Options

	tr      *Tracer
	staging *staging
	shards  *ddg.Sharded
	res     *ddg.MemResolver
	ctrl    *cdep.Tracker

	cons *pipeline.Consumer
	pool *pipeline.Pool

	threads map[int]*ddg.ThreadExtractor
	scratch map[int]*chainScratch
	counts  map[int]uint64 // per-thread instance high-water mark

	merged    []ddg.Extracted
	depBuf    []ddg.Dep
	extracted [][]ddg.Extracted
	tasks     []func()
}

// chainScratch is one thread's reusable extraction storage: the Dep
// arena its records alias and the record list itself. Owned by the
// thread's extraction worker during phase 1, read by the consumer in
// phase 2, reused window after window.
type chainScratch struct {
	arena []ddg.Dep
	out   []ddg.Extracted
}

// NewOffloaded builds the offloaded stage for prog. opts selects the
// ONTRAC configuration (same knobs as the inline tracer); popt shapes
// the pipeline (workers, batch size, window, queue).
func NewOffloaded(prog *isa.Program, opts Options, popt pipeline.Options) *Offloaded {
	popt.Fill()
	o := &Offloaded{
		prog:    prog,
		opts:    opts,
		popt:    popt,
		staging: newStaging(),
		shards:  ddg.NewSharded(opts.BufferBytes),
		res:     ddg.NewMemResolver(false),
		threads: make(map[int]*ddg.ThreadExtractor),
		scratch: make(map[int]*chainScratch),
		counts:  make(map[int]uint64),
		pool:    pipeline.NewPool(popt.Workers),
	}
	o.tr = newTracer(prog, opts)
	o.tr.out = o.staging
	if opts.ControlDeps {
		o.ctrl = cdep.New(prog)
	}
	o.cons = pipeline.NewConsumer(offHandler{o}, popt.WindowBatches)
	return o
}

// Attach connects the stage to m via a batching recorder (filter:
// ddg.TraceRelevant) and starts the consumer. Call Close after the
// run.
func (o *Offloaded) Attach(m *vm.Machine) {
	o.cons.Attach(m, o.popt.BatchEvents, o.popt.QueueDepth, ddg.TraceRelevant)
}

// SpillTo attaches a chunk sink (store.Writer) that every per-thread
// shard spills sealed chunks into, making the whole execution
// persistent instead of window-bounded. Call before Attach/Consume.
// Chunks spill from the consumer side's shard appends, so the sink's
// disk I/O never runs on the execution thread. Close flushes the
// still-open chunks through the sink; the caller closes the sink
// itself afterwards.
func (o *Offloaded) SpillTo(sink ddg.ChunkSink) { o.shards.SetSpill(sink) }

// Close flushes and drains the consumer, stops the worker pool, and
// seals the shards' open chunks through the spill sink (if any).
// Results are stable once Close returns. Idempotent.
func (o *Offloaded) Close() {
	o.cons.Close()
	o.pool.Close()
	o.shards.Flush()
}

// Consume traces an offline batch stream (from pipeline.CollectWith
// with ddg.TraceRelevant) synchronously on the calling goroutine.
func (o *Offloaded) Consume(batches []*vm.Batch) { o.cons.Consume(batches) }

// Trace attaches o to m, runs the machine, and closes the stage: the
// one-call entry point for an offloaded tracing run.
func Trace(m *vm.Machine, o *Offloaded) *vm.Result {
	o.Attach(m)
	res := m.Run()
	o.Close()
	return res
}

// Reader returns the reconstructing ddg.Source over the sharded
// buffers, for slicing.
func (o *Offloaded) Reader() *Reader { return &Reader{t: o.tr, src: o.shards} }

// ReaderOver returns the reconstructing view over any raw record
// source carrying this stage's chunks — typically a store.Reader
// reopened from the directory the stage spilled into — so O1/O2
// reconstruction works over the on-disk trace too.
func (o *Offloaded) ReaderOver(src ddg.Source) *Reader { return &Reader{t: o.tr, src: src} }

// Shards exposes the per-thread compact stores.
func (o *Offloaded) Shards() *ddg.Sharded { return o.shards }

// LastID returns the most recent traced instance id of a thread,
// usable as a slicing criterion; the zero ID means the thread never
// traced an instruction (matching the inline extractor's convention).
func (o *Offloaded) LastID(tid int) ddg.ID {
	n := o.counts[tid]
	if n == 0 {
		return 0
	}
	return ddg.MakeID(tid, n)
}

// Stats returns the tracer counters with the stage's own instruction
// and byte accounting.
func (o *Offloaded) Stats() Stats {
	s := o.tr.Stats()
	var n uint64
	for _, c := range o.counts {
		n += c
	}
	s.Instrs = n
	s.BytesWritten = o.shards.BytesWritten()
	return s
}

// offHandler adapts Offloaded to pipeline.BatchHandler.
type offHandler struct{ o *Offloaded }

func (h offHandler) Window(w []*vm.Batch) { h.o.window(w) }

// Sync batches (spawn) arrive solo after a drain; the window path
// handles the single-chain case on the consumer goroutine, where the
// cross-thread register seeding is safe.
func (h offHandler) Sync(b *vm.Batch) { h.o.window([]*vm.Batch{b}) }

// thread returns (creating on the consumer goroutine) tid's
// extractor and scratch.
func (o *Offloaded) thread(tid int) *ddg.ThreadExtractor {
	x, ok := o.threads[tid]
	if !ok {
		var ct *cdep.ThreadTracker
		if o.ctrl != nil {
			ct = o.ctrl.Thread(tid)
		}
		x = ddg.NewThreadExtractor(tid, ct)
		o.threads[tid] = x
		o.scratch[tid] = &chainScratch{}
	}
	return x
}

// window runs the three phases over one window.
func (o *Offloaded) window(w []*vm.Batch) {
	chains, _ := pipeline.GroupChains(w)
	for _, ch := range chains {
		o.thread(ch[0].TID) // consumer-side map writes before dispatch
	}

	// Phase 1: thread-local extraction, parallel across chains. The
	// per-window slices are reused fields, like the arenas they carry.
	extracted := o.extracted[:0]
	tasks := o.tasks[:0]
	for i, ch := range chains {
		i, ch := i, ch
		extracted = append(extracted, nil)
		tasks = append(tasks, func() { extracted[i] = o.extractChain(ch) })
	}
	o.pool.Run(tasks)
	o.tasks = tasks[:0]

	// Phase 2: global-Seq merge through the memory resolver and the
	// elision core — the exact inline event order. A lone chain is
	// already globally ordered: walk it in place, no copy, no sort.
	var all []ddg.Extracted
	if len(chains) == 1 {
		all = extracted[0]
	} else {
		all = o.merged[:0]
		for _, recs := range extracted {
			all = append(all, recs...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Ev.Seq < all[j].Ev.Seq })
	}
	for i := range all {
		rec := &all[i]
		deps := o.res.Resolve(rec, o.depBuf[:0])
		o.tr.Node(rec.ID, rec.PC, rec.Ev)
		o.tr.Deps(rec.ID, rec.PC, deps)
		o.depBuf = deps[:0]
		tid := rec.ID.TID()
		if n := rec.ID.N(); n > o.counts[tid] {
			o.counts[tid] = n
		}
		if rec.Ev.Kind == vm.EvSpawn {
			// Solo sync window: seeding the child's register tags from
			// the consumer goroutine is race-free.
			o.thread(int(rec.Ev.DstVal)).SeedSpawnArg(rec.ID, rec.PC)
		}
	}
	// Drop batch-event pointers — from the merge buffer and from the
	// per-thread scratch the records came from (a lone chain's `all`
	// aliases its scratch): the Consumer recycles the window's batches
	// as soon as we return.
	if len(chains) > 1 {
		for i := range all {
			all[i].Ev = nil
			all[i].Deps = nil
		}
		o.merged = all[:0]
	}
	for j, recs := range extracted {
		for i := range recs {
			recs[i].Ev = nil
			recs[i].Deps = nil
		}
		extracted[j] = nil
	}
	o.extracted = extracted[:0]

	// Phase 3: per-thread appends into the shards, parallel across
	// threads.
	o.flushStaging()
}

// extractChain runs thread-local extraction over one thread's batch
// chain (worker goroutine; the chain's thread state and scratch are
// owned by this call for the window).
func (o *Offloaded) extractChain(ch []*vm.Batch) []ddg.Extracted {
	tid := ch[0].TID
	x := o.threads[tid]
	sc := o.scratch[tid]
	total := 0
	for _, b := range ch {
		total += len(b.Events)
	}
	// 2 register sources max per event: sizing the arena up front
	// keeps every record's dep slice aliased into one allocation; the
	// scratch persists across windows, so steady state allocates
	// nothing.
	if cap(sc.arena) < 2*total {
		sc.arena = make([]ddg.Dep, 0, 2*total)
	}
	if cap(sc.out) < total {
		sc.out = make([]ddg.Extracted, 0, total)
	}
	arena, out := sc.arena[:0], sc.out[:0]
	var rec ddg.Extracted
	for _, b := range ch {
		for i := range b.Events {
			rec, arena = x.Extract(&b.Events[i], arena)
			out = append(out, rec)
		}
	}
	sc.arena, sc.out = arena, out
	return out
}

// flushStaging appends the window's surviving records into the
// per-thread shards, in parallel when several threads staged work.
func (o *Offloaded) flushStaging() {
	tids := o.staging.tids()
	if len(tids) == 0 {
		return
	}
	tasks := o.tasks[:0]
	for _, tid := range tids {
		tid := tid
		o.shards.Shard(tid) // consumer-side map writes before dispatch
		tasks = append(tasks, func() { o.appendStaged(tid) })
	}
	o.pool.Run(tasks)
	o.tasks = tasks[:0]
	o.staging.reset()
}

func (o *Offloaded) appendStaged(tid int) {
	shard := o.shards.Shard(tid)
	for _, r := range o.staging.perTid[tid] {
		shard.Append(r.id, r.pc, r.deps, r.rl)
	}
}

// stagedRec is one post-elision record awaiting its shard append.
type stagedRec struct {
	id   ddg.ID
	pc   int32
	deps []ddg.Dep
	rl   uint64
}

// staging collects the records Tracer.Deps emits during a window
// merge. It implements depAppender; the dep list is copied because
// the tracer reuses its buffer per event.
type staging struct {
	perTid map[int][]stagedRec
	arena  []ddg.Dep
	tidBuf []int
}

func newStaging() *staging {
	return &staging{perTid: make(map[int][]stagedRec)}
}

// Append implements depAppender (consumer goroutine only).
func (s *staging) Append(use ddg.ID, usePC int32, deps []ddg.Dep, rlDelta uint64) {
	start := len(s.arena)
	s.arena = append(s.arena, deps...)
	tid := use.TID()
	s.perTid[tid] = append(s.perTid[tid], stagedRec{
		id: use, pc: usePC, deps: s.arena[start:len(s.arena):len(s.arena)], rl: rlDelta,
	})
}

// tids lists threads with staged records (into a reused buffer,
// valid until the next call).
func (s *staging) tids() []int {
	out := s.tidBuf[:0]
	for tid, recs := range s.perTid {
		if len(recs) > 0 {
			out = append(out, tid)
		}
	}
	sort.Ints(out)
	s.tidBuf = out
	return out
}

// reset clears staged work, keeping storage for the next window.
func (s *staging) reset() {
	for tid, recs := range s.perTid {
		s.perTid[tid] = recs[:0]
	}
	s.arena = s.arena[:0]
}
