package pipeline

import "scaldift/internal/vm"

// Consumer is the helper-thread plumbing both offloaded analyses
// share — DIFT propagation in this package and the ONTRAC stage
// (internal/ontrac): it hands each sealed batch's events, in the
// order they executed, to one handler and recycles the batch. The
// handler runs on one goroutine at a time — the consumer goroutine
// after Attach, Consume's caller otherwise — and owns the events only
// for the duration of the call, so it must not retain them.
type Consumer struct {
	handle func(evs []vm.Event)

	rec  *vm.Recorder
	in   chan *vm.Batch
	done chan struct{}
}

// NewConsumer creates a consumer delivering every batch to handle.
func NewConsumer(handle func(evs []vm.Event)) *Consumer {
	return &Consumer{handle: handle}
}

// Attach connects the consumer to m via a batching recorder with the
// given filter, sized by opt's (filled) batch size and queue depth,
// and starts the consumer goroutine. Call Close after the run to
// flush and drain.
func (c *Consumer) Attach(m *vm.Machine, opt Options, filter func(*vm.Event) bool) {
	// The queue is the backpressure bound: QueueDepth batches in
	// flight, then the execution thread waits for the helper.
	c.in = make(chan *vm.Batch, opt.QueueDepth)
	c.done = make(chan struct{})
	//scaldift:ignore poolescape emit hands batch ownership to the consumer goroutine, which recycles it after the handler returns
	c.rec = vm.NewRecorder(opt.BatchEvents, filter, func(b *vm.Batch) { c.in <- b })
	m.AttachTool(c.rec)
	go func() {
		for b := range c.in {
			c.handle(b.Events)
			c.rec.Free(b)
		}
		close(c.done)
	}()
}

// Consume feeds an offline batch stream (from Collect) synchronously
// on the calling goroutine. It may be called repeatedly.
func (c *Consumer) Consume(batches []*vm.Batch) {
	for _, b := range batches {
		c.handle(b.Events)
	}
}

// Close flushes the attached recorder and drains the consumer
// goroutine. Idempotent; a no-op for offline consumers.
func (c *Consumer) Close() {
	if c.in == nil {
		return
	}
	c.rec.Flush()
	close(c.in)
	<-c.done
	c.in = nil
}
