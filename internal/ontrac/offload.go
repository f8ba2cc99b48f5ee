package ontrac

import (
	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/pipeline"
	"scaldift/internal/vm"
)

// Offloaded is the Tracer run downstream of the execution thread —
// the paper's helper thread on a spare core. The machine carries only
// a batching recorder (one struct copy per instruction, filter
// ddg.TraceRelevant); the shared pipeline.Consumer goroutine hands
// each batch's events, already in the order they executed, to the
// very extractor an inline run attaches as its tool. The tracer
// therefore sees the inline event stream exactly, so an offloaded run
// and an inline run of one schedule agree on everything observable —
// stats, bytes, ring eviction under any BufferBytes, windows and
// slices; the differential suite in offload_test.go holds it to that.
type Offloaded struct {
	tr   *Tracer
	popt pipeline.Options
	cons *pipeline.Consumer
}

// NewOffloaded builds the offloaded stage for prog. opts selects the
// ONTRAC configuration (same knobs as the inline tracer); popt shapes
// the recorder and the queue (batch size, depth).
func NewOffloaded(prog *isa.Program, opts Options, popt pipeline.Options) *Offloaded {
	popt.Fill()
	o := &Offloaded{tr: New(prog, opts), popt: popt}
	// The helper thread's whole job: replay each batch into the
	// inline extractor.
	ex := o.tr.ex
	o.cons = pipeline.NewConsumer(func(evs []vm.Event) {
		for i := range evs {
			ex.OnEvent(nil, &evs[i])
		}
	})
	return o
}

// Attach connects the stage to m via a batching recorder (filter:
// ddg.TraceRelevant) and starts the consumer. Call Close after the
// run.
func (o *Offloaded) Attach(m *vm.Machine) {
	o.cons.Attach(m, o.popt, ddg.TraceRelevant)
}

// SpillTo attaches a chunk sink (store.Writer) the buffer spills
// sealed chunks into, making the whole execution persistent instead
// of window-bounded. Call before Attach/Consume. Chunks spill from
// the consumer goroutine, so the sink's disk I/O never runs on the
// execution thread. Close flushes the still-open chunks through the
// sink; the caller closes the sink itself afterwards.
func (o *Offloaded) SpillTo(sink ddg.ChunkSink) { o.tr.buf.SetSpill(sink) }

// Close flushes and drains the consumer and seals the buffer's open
// chunks through the spill sink (if any). Results are stable once
// Close returns. Idempotent.
func (o *Offloaded) Close() {
	o.cons.Close()
	o.tr.buf.Flush()
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

// Reader returns the reconstructing ddg.Source over the buffer, for
// slicing.
func (o *Offloaded) Reader() *Reader { return o.tr.Reader() }

// Stats returns the tracer's counters.
func (o *Offloaded) Stats() Stats { return o.tr.Stats() }
