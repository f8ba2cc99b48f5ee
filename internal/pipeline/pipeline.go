// Package pipeline implements offloaded analysis: execution and
// analysis decoupled, the paper's central scalability move. The VM
// runs with only a batching event recorder attached (vm.Recorder —
// one filter check and one struct copy per instruction), and analysis
// consumes the sealed batches downstream.
//
// Two analysis kinds run on this machinery today: the DIFT
// propagation pipeline in this package (taint labels over the
// epoch-sharded shadow.Epoch memory) and the ONTRAC dependence-
// tracing stage in internal/ontrac (the inline tracer, driven from
// the consumer goroutine — the paper's one helper thread). Both plug
// a BatchHandler into the shared Consumer (consumer.go), which owns
// windowing, flush-group alignment, sync ordering, and batch
// recycling, and both replay events in inline order through the one
// Seq-ordered window walk, WalkSeq.
//
// The analyze side is organized around the shadow.Epoch ownership
// contract (see internal/shadow/epoch.go, enforced by the epochfence
// analyzer): before dispatching a window, the consumer goroutine
// assigns every shard the window touches to exactly one worker, and
// workers then propagate through owner Views with zero atomics — the
// pool.run dispatch/barrier pair is the only fence. Which windows can
// be dispatched that way is decided by the adaptive conflict learner
// (learner.go): it learns per-(thread,PC) address footprints so that
// repeat windows of a loopy program skip the full address scan, and
// verifies every learned footprint against the events it covers, so a
// stale footprint (a program phase change) can only cost a precise
// re-scan, never a missed conflict. Propagation itself runs through
// dift.StepBatch, which amortizes per-event dispatch over runs of
// same-shape instructions. docs/PERF.md quantifies what each piece
// buys; docs/ARCHITECTURE.md places the package in the full path.
//
// Equivalence with the inline engines is by construction plus
// checking, not hope:
//
//   - workers run the same transfer function (dift.Step, batched by
//     dift.StepBatch) the inline engine runs — the semantics exist
//     once;
//   - a window of per-thread batch chains is propagated concurrently
//     only when conflict analysis proves the chains touch disjoint
//     memory; windows that conflict (racy or closely synchronized
//     threads) and thread-communication events (spawn) fall back to
//     an ordered sequential merge by global sequence number;
//   - sinks fire in global sequence order, exactly as inline;
//   - the differential suite in this package runs every prog.All()
//     workload under both engines across randomized schedules and
//     asserts identical labels.
package pipeline

import (
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/shadow"
	"scaldift/internal/vm"
)

// Options parameterizes a Pipeline.
type Options struct {
	// Workers is the number of DIFT propagation worker goroutines
	// (default 2). The ONTRAC stage has no workers — it is one helper
	// goroutine — and reads this only through the WindowBatches
	// default.
	Workers int
	// BatchEvents is the recorder's per-batch capacity (default
	// vm.DefaultBatchEvents).
	BatchEvents int
	// WindowBatches is how many batches accumulate before a window is
	// propagated (default 2×Workers). Larger windows expose more
	// cross-thread parallelism; smaller ones bound latency.
	WindowBatches int
	// QueueDepth bounds the recorder→consumer channel; a full queue
	// applies backpressure to the execution thread (default 64).
	QueueDepth int
}

// epochShards is the epoch-sharded shadow memory's shard count. It
// must not exceed 64: every bit of a uint64 conflict mask then names
// exactly one shard, so disjoint masks mean disjoint shards and the
// window analysis never fuses ownership groups spuriously.
const epochShards = 64

// Fill applies defaults in place; the ONTRAC stage shapes its
// recorder and windows with the same knobs.
func (o *Options) Fill() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.BatchEvents <= 0 {
		o.BatchEvents = vm.DefaultBatchEvents
	}
	if o.WindowBatches <= 0 {
		o.WindowBatches = 2 * o.Workers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
}

// Pipeline is the offloaded DIFT engine. Create with New, attach to a
// machine with Attach (or use Run), and read results after Close.
// Sinks fire on the consumer goroutine, in global sequence order,
// and receive a private copy of the event: the pointer stays valid
// after the callback (unlike the inline engine's reused event).
type Pipeline[L comparable] struct {
	dom   dift.Domain[L]
	pol   dift.Policy
	opt   Options
	mem   *shadow.Epoch[L]
	regs  []*[isa.NumRegs]L
	sinks []dift.Sink[L]

	cons    *Consumer
	pool    *pool
	learner conflictLearner

	events  uint64
	recsBuf []sinkRec[L]
	// capBuf is the window-scoped sink capture and sinkBuf the
	// one-element dift.Sink slice wrapping it, hoisted here so the
	// sequential paths allocate nothing per window.
	capBuf  capture[L]
	sinkBuf []dift.Sink[L]
	// Per-owner state for parallel windows, grown once (ensureOwners)
	// and reused every window: owner g always runs task g with view g,
	// capturing into caps[g] through wsinks[g]. Only the window's
	// chain grouping (curChains/curGroups) changes per dispatch.
	views     []*shadow.View[L]
	caps      []*capture[L]
	wsinks    [][]dift.Sink[L]
	tasks     []func()
	curChains [][]*vm.Batch
	curGroups [][]int
}

// New creates a pipeline over the given domain and policy and starts
// its worker pool. The domain must be safe for concurrent use by
// Options.Workers goroutines (Bool, PC and InputID are stateless;
// lineage needs lineage.NewLockedDomain).
func New[L comparable](dom dift.Domain[L], pol dift.Policy, opt Options) *Pipeline[L] {
	opt.Fill()
	p := &Pipeline[L]{
		dom:  dom,
		pol:  pol,
		opt:  opt,
		mem:  shadow.NewEpoch[L](epochShards),
		pool: newPool(opt.Workers),
	}
	p.sinkBuf = []dift.Sink[L]{&p.capBuf}
	p.cons = NewConsumer(difthandler[L]{p}, opt.WindowBatches)
	p.ensureTID(0)
	return p
}

// AddSink registers a sink. Call before Attach or Consume.
func (p *Pipeline[L]) AddSink(s dift.Sink[L]) { p.sinks = append(p.sinks, s) }

// Attach connects the pipeline to m via a batching recorder and
// starts the consumer goroutine. Call Close after the run to flush
// and drain.
func (p *Pipeline[L]) Attach(m *vm.Machine) {
	p.cons.Attach(m, p.opt.BatchEvents, p.opt.QueueDepth, dift.Relevant)
}

// Close flushes the recorder, drains the consumer, and stops the
// worker pool. The pipeline's results are stable once Close returns;
// the pipeline cannot be reused afterwards. Close is idempotent, so
// `defer p.Close()` composes with Run (which closes on return).
func (p *Pipeline[L]) Close() {
	p.cons.Close()
	p.pool.close()
}

// Consume propagates an offline batch stream (from Collect)
// synchronously on the calling goroutine, using the worker pool for
// conflict-free windows. It may be called repeatedly; call Close when
// done to stop the workers.
func (p *Pipeline[L]) Consume(batches []*vm.Batch) {
	p.cons.Consume(batches)
}

// Run attaches p to m, runs the machine to completion, and closes the
// pipeline: the one-call entry point for an offloaded analysis run.
func Run[L comparable](m *vm.Machine, p *Pipeline[L]) *vm.Result {
	p.Attach(m)
	res := m.Run()
	p.Close()
	return res
}

// Collect runs m with only a batching recorder attached, keeping the
// label-relevant events, and returns the sealed batches — an offline
// trace. Benchmarks use it to time the record and propagate stages
// separately.
func Collect(m *vm.Machine, batchEvents int) ([]*vm.Batch, *vm.Result) {
	return CollectWith(m, batchEvents, dift.Relevant)
}

// CollectWith is Collect with an explicit relevance filter (e.g.
// ddg.TraceRelevant for an offline dependence-tracing stream).
func CollectWith(m *vm.Machine, batchEvents int, filter func(*vm.Event) bool) ([]*vm.Batch, *vm.Result) {
	var out []*vm.Batch
	rec := vm.NewRecorder(batchEvents, filter, func(b *vm.Batch) { out = append(out, b) })
	m.AttachTool(rec)
	res := m.Run()
	rec.Flush()
	return out, res
}

// Regs implements dift.RegBank. The consumer grows the bank at
// window boundaries (ensureTID), so workers see a stable slice.
func (p *Pipeline[L]) Regs(tid int) *[isa.NumRegs]L { return p.regs[tid] }

func (p *Pipeline[L]) ensureTID(tid int) {
	for tid >= len(p.regs) {
		p.regs = append(p.regs, new([isa.NumRegs]L))
	}
}

// RegTaint returns the label of register r in thread tid.
func (p *Pipeline[L]) RegTaint(tid, r int) L {
	var zero L
	if tid < 0 || tid >= len(p.regs) || r < 0 || r >= isa.NumRegs {
		return zero
	}
	return p.regs[tid][r]
}

// MemTaint returns the label of memory word addr.
func (p *Pipeline[L]) MemTaint(addr int64) L { return p.mem.Get(addr) }

// TaintedWords returns the number of memory words currently tainted.
func (p *Pipeline[L]) TaintedWords() int { return p.mem.Tainted() }

// ShadowSizeWords returns the allocated shadow size in cells.
func (p *Pipeline[L]) ShadowSizeWords() int { return p.mem.SizeWords() }

// ConflictStats returns the window conflict analysis counters (see
// LearnerStats). Read only while the pipeline is quiescent — after
// Close, or between Consume calls.
func (p *Pipeline[L]) ConflictStats() LearnerStats { return p.learner.stats }

// Events returns how many recorded events the pipeline propagated.
// The recorder filters label-irrelevant events, so this is smaller
// than the inline engine's count for the same run.
func (p *Pipeline[L]) Events() uint64 { return p.events }

var _ dift.RegBank[bool] = (*Pipeline[bool])(nil)
