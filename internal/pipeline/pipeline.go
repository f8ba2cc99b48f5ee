// Package pipeline implements offloaded analysis: execution and
// analysis decoupled, the paper's central scalability move. The VM
// runs with only a batching event recorder attached (vm.Recorder —
// one filter check and one struct copy per instruction), and one
// helper goroutine — the paper's helper thread on a spare core —
// analyzes the sealed batches downstream, in the order they executed.
//
// Two analysis kinds run on this machinery: DIFT propagation in this
// package (the inline transfer function, dift.StepBatch, over one
// plain shadow.Mem) and the ONTRAC dependence-tracing stage in
// internal/ontrac (the inline tracer). Both hand a per-batch function
// to the shared Consumer (consumer.go), which owns the queue, the
// goroutine and batch recycling. docs/ARCHITECTURE.md places the
// package in the full path; docs/PERF.md accounts for the record and
// analyze costs and the hand-off sizing.
//
// Equivalence with the inline engines is by construction plus
// checking: the helper runs the same transfer function over the same
// kind of shadow memory in the same event order, sinks fire in that
// order, and the differential suite in this package runs every
// prog.All() workload under both engines across randomized schedules
// and batch sizes and asserts identical labels and sink streams.
package pipeline

import (
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/shadow"
	"scaldift/internal/vm"
)

// Options parameterizes a Pipeline.
type Options struct {
	// Workers is read by nothing: analysis runs on the one consumer
	// goroutine.
	//
	// Deprecated: kept only because the frozen bench/ directory sets
	// it; the next benchmark PR removes it (ROADMAP item 4).
	//scaldift:ignore deadexport bench/ sets it and cannot change until the next benchmark PR (ROADMAP item 4)
	Workers int
	// BatchEvents is the recorder's per-batch capacity (default
	// vm.DefaultBatchEvents).
	BatchEvents int
	// QueueDepth bounds the recorder→consumer channel; a full queue
	// applies backpressure to the execution thread (default 16, so
	// the defaults keep 16 k events in flight).
	QueueDepth int
}

// Fill applies defaults in place; the ONTRAC stage shapes its
// recorder and queue with the same knobs.
func (o *Options) Fill() {
	if o.BatchEvents <= 0 {
		o.BatchEvents = vm.DefaultBatchEvents
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
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
	mem   *shadow.Mem[L]
	regs  []*[isa.NumRegs]L
	sinks []dift.Sink[L]

	cons   *Consumer
	events uint64
	stats  LearnerStats
	// sinkBuf is the one-element dift.Sink slice StepBatch runs
	// against: the copying adapter in front of sinks.
	sinkBuf []dift.Sink[L]
}

// New creates a pipeline over the given domain and policy. Every
// domain call happens on one goroutine at a time (the consumer's, or
// Consume's caller), so any dift.Domain serves, lineage.NewDomain
// included.
func New[L comparable](dom dift.Domain[L], pol dift.Policy, opt Options) *Pipeline[L] {
	opt.Fill()
	p := &Pipeline[L]{dom: dom, pol: pol, opt: opt, mem: shadow.NewMem[L]()}
	p.sinkBuf = []dift.Sink[L]{copySink[L]{p}}
	p.cons = NewConsumer(p.handle)
	return p
}

// AddSink registers a sink. Call before Attach or Consume.
func (p *Pipeline[L]) AddSink(s dift.Sink[L]) { p.sinks = append(p.sinks, s) }

// Attach connects the pipeline to m via a batching recorder and
// starts the consumer goroutine. Call Close after the run to flush
// and drain.
func (p *Pipeline[L]) Attach(m *vm.Machine) {
	p.cons.Attach(m, p.opt, dift.Relevant)
}

// Close flushes the recorder and drains the consumer. The pipeline's
// results are stable once Close returns. Close is idempotent, so
// `defer p.Close()` composes with Run (which closes on return).
func (p *Pipeline[L]) Close() { p.cons.Close() }

// Consume propagates an offline batch stream (from Collect)
// synchronously on the calling goroutine. It may be called
// repeatedly.
func (p *Pipeline[L]) Consume(batches []*vm.Batch) { p.cons.Consume(batches) }

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

// Regs implements dift.RegBank, growing the bank on demand as the
// inline engine does; each file is allocated on its own, so the
// pointers stay stable.
func (p *Pipeline[L]) Regs(tid int) *[isa.NumRegs]L {
	for tid >= len(p.regs) {
		p.regs = append(p.regs, new([isa.NumRegs]L))
	}
	return p.regs[tid]
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

// LearnerStats counts the batches whose first and last event belong
// to different threads, in Windows and OrderedMerges alike; the other
// fields stay zero.
//
// Deprecated: kept only because the frozen bench/ directory reads
// it; the next benchmark PR removes it (ROADMAP item 4).
type LearnerStats struct {
	Windows, OrderedMerges                                    uint64
	FastParallel, GroupedParallel, PreciseScans, VerifyMisses uint64
}

// ConflictStats returns the thread-spanning batch count. Read only
// while the pipeline is quiescent — after Close, or between Consume
// calls.
//
// Deprecated: see LearnerStats.
func (p *Pipeline[L]) ConflictStats() LearnerStats { return p.stats }

// Events returns how many recorded events the pipeline propagated.
// The recorder filters label-irrelevant events, so this is smaller
// than the inline engine's count for the same run.
func (p *Pipeline[L]) Events() uint64 { return p.events }

var _ dift.RegBank[bool] = (*Pipeline[bool])(nil)
