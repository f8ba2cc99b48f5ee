// Package pipeline implements offloaded analysis: execution and
// analysis decoupled, the paper's central scalability move. The VM
// runs with only a batching event recorder attached (vm.Recorder —
// one filter check and one struct copy per instruction), and one
// helper goroutine — the paper's helper thread on a spare core —
// analyzes the sealed batches downstream, in the order they executed.
//
// Two analysis kinds run on this machinery: DIFT propagation in this
// package (the inline dift.Engine) and the ONTRAC dependence-tracing
// stage in internal/ontrac (the inline tracer). Both hand a per-batch
// function to the shared Consumer (consumer.go), which owns the queue,
// the goroutine and batch recycling, and both feed each recorded event
// to the inline tool's OnEvent. docs/ARCHITECTURE.md places the
// package in the full path; docs/PERF.md accounts for the record and
// analyze costs and the hand-off sizing.
//
// Equivalence with inline analysis is by construction plus checking:
// the helper runs the inline engine itself over the events in the
// order they executed, sinks fire in that order, and the differential
// suite in this package runs every prog.All() workload both ways
// across randomized schedules and batch sizes and asserts identical
// labels and sink streams.
package pipeline

import (
	"scaldift/internal/dift"
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

// Pipeline is offloaded DIFT: the inline dift.Engine, run on the
// consumer goroutine over the recorded stream. Create with New, attach
// to a machine with Attach (or use Run), and read the engine's labels
// after Close. Sinks fire on the consumer goroutine, in global
// sequence order, and receive a private copy of the event: the
// pointer stays valid after the callback (unlike the inline engine's
// reused event).
type Pipeline[L comparable] struct {
	*dift.Engine[L]
	opt Options
	// sinks are the registered sinks; the engine itself has one,
	// copySink, which hands each of these a private event copy.
	sinks []dift.Sink[L]

	cons   *Consumer
	events uint64
	stats  LearnerStats
}

// New creates a pipeline over the given domain. The policy argument is
// ignored (see dift.Policy). Every domain call happens on one
// goroutine at a time (the consumer's, or Consume's caller), so any
// dift.Domain serves, lineage.NewDomain included.
func New[L comparable](dom dift.Domain[L], pol dift.Policy, opt Options) *Pipeline[L] {
	opt.Fill()
	p := &Pipeline[L]{Engine: dift.NewEngine(dom, pol), opt: opt}
	p.Engine.AddSink(copySink[L]{p})
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

// copySink is the one sink registered on the engine, in front of the
// pipeline's own sinks. The event it is handed points into a recorder
// batch that returns to the pool right after the handler, so a
// registered sink holding that pointer past the callback would watch
// its event be overwritten by an unrelated one (the pooled-reuse
// hazard TestSinkEventsSurvivePoolReuse pins). Every delivery
// therefore goes out as a private copy.
type copySink[L comparable] struct{ p *Pipeline[L] }

func (c copySink[L]) OnOutput(ev *vm.Event, l L) {
	cp := *ev
	for _, s := range c.p.sinks {
		s.OnOutput(&cp, l)
	}
}

func (c copySink[L]) OnIndirectBranch(ev *vm.Event, l L) {
	cp := *ev
	for _, s := range c.p.sinks {
		s.OnIndirectBranch(&cp, l)
	}
}

// handle is the helper thread's whole job: the inline engine over one
// batch, whose events are already in the order they executed.
func (p *Pipeline[L]) handle(evs []vm.Event) {
	if n := len(evs); n > 0 && evs[0].TID != evs[n-1].TID {
		p.stats.Windows++
		p.stats.OrderedMerges++
	}
	for i := range evs {
		p.OnEvent(nil, &evs[i])
	}
	p.events += uint64(len(evs))
}
