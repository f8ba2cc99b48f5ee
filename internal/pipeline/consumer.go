package pipeline

import (
	"sync"

	"scaldift/internal/vm"
)

// This file is the consumer-side machinery shared by every offloaded
// analysis kind: the DIFT propagation pipeline in this package and
// the ONTRAC dependence-tracing stage (internal/ontrac). A
// BatchHandler supplies the analysis; Consumer supplies windowing,
// group alignment, sync ordering, channel plumbing, and pool
// recycling; WalkSeq replays a window in the inline event order.

// BatchHandler consumes whole windows of recorded batches. Both
// methods run on the consumer goroutine; Window owns the batches only
// for the duration of the call (the Consumer returns them to the
// recorder pool afterwards), so a handler must not retain events.
type BatchHandler interface {
	// Window processes an accumulated window. Its batches never break
	// a flush group, so the window covers whole contiguous global-Seq
	// ranges and may be reordered internally (per-thread chains).
	Window(w []*vm.Batch)
	// Sync processes a solo thread-communication batch — a global
	// ordering point. The Consumer drains the open window first, so
	// everything recorded before the batch has been applied.
	Sync(b *vm.Batch)
}

// Consumer accumulates sealed batches into flush-group-aligned
// windows and hands them to a BatchHandler, either live from an
// attached machine (Attach + Close) or offline (Consume).
type Consumer struct {
	h             BatchHandler
	windowBatches int

	rec  *vm.Recorder
	in   chan *vm.Batch
	done chan struct{}

	window   []*vm.Batch
	winGroup uint64
}

// NewConsumer creates a consumer delivering windows of about
// windowBatches batches (grown to flush-group boundaries) to h.
func NewConsumer(h BatchHandler, windowBatches int) *Consumer {
	if windowBatches <= 0 {
		windowBatches = 4
	}
	return &Consumer{h: h, windowBatches: windowBatches}
}

// Attach connects the consumer to m via a batching recorder with the
// given filter and starts the consumer goroutine. Call Close after
// the run to flush and drain.
func (c *Consumer) Attach(m *vm.Machine, batchEvents, queueDepth int, filter func(*vm.Event) bool) {
	if queueDepth <= 0 {
		queueDepth = 64
	}
	c.in = make(chan *vm.Batch, queueDepth)
	c.done = make(chan struct{})
	//scaldift:ignore poolescape emit hands batch ownership to the consumer goroutine, which recycles it after feed
	c.rec = vm.NewRecorder(batchEvents, filter, func(b *vm.Batch) { c.in <- b })
	m.AttachTool(c.rec)
	go func() {
		for b := range c.in {
			c.feed(b)
		}
		c.flushWindow()
		close(c.done)
	}()
}

// Consume feeds an offline batch stream (from Collect) synchronously
// on the calling goroutine and drains the trailing window. It may be
// called repeatedly.
func (c *Consumer) Consume(batches []*vm.Batch) {
	for _, b := range batches {
		c.feed(b)
	}
	c.flushWindow()
}

// Close flushes the attached recorder and drains the consumer
// goroutine. Idempotent; a no-op for offline consumers.
func (c *Consumer) Close() {
	if c.rec != nil {
		c.rec.Flush()
	}
	if c.in != nil {
		close(c.in)
		<-c.done
		c.in = nil
	}
}

// feed accepts one sealed batch. Windows only break at flush-group
// boundaries: the batches of one group jointly cover a contiguous
// global sequence range, so splitting a group would let a window run
// ahead of another thread's older, not-yet-windowed events.
func (c *Consumer) feed(b *vm.Batch) {
	if b.Sync {
		c.flushWindow()
		c.h.Sync(b)
		c.free(b)
		return
	}
	if len(c.window) >= c.windowBatches && b.Group != c.winGroup {
		c.flushWindow()
	}
	c.window = append(c.window, b) //scaldift:ignore poolescape the consumer owns accumulated batches and recycles them itself in flushWindow
	c.winGroup = b.Group
}

// flushWindow hands the accumulated window to the handler and
// recycles its batches.
func (c *Consumer) flushWindow() {
	if len(c.window) == 0 {
		return
	}
	w := c.window
	c.window = c.window[:0]
	c.h.Window(w)
	for _, b := range w {
		c.free(b)
	}
}

func (c *Consumer) free(b *vm.Batch) {
	if c.rec != nil {
		c.rec.Free(b)
	}
}

// WalkSeq calls visit for every event of window w in ascending global
// Seq order — the exact order an inline tool saw them. Each thread's
// batches are already Seq-ascending in window order, so the walk is a
// k-way merge over the per-thread chains (k is the thread count; a
// lone chain is a straight walk): it repeatedly takes the chain with
// the smallest head and runs it up to the next chain's head. visit
// receives a pointer into the batch itself, valid only for the call.
// This is the one ordered walk both offloaded analyses share: the
// DIFT pipeline's ordered merge and the whole of the ONTRAC stage.
func WalkSeq(w []*vm.Batch, visit func(ev *vm.Event)) {
	chains, _ := groupChains(w)
	if len(chains) == 1 {
		for _, b := range chains[0] {
			for i := range b.Events {
				visit(&b.Events[i])
			}
		}
		return
	}
	cur := make([]seqCursor, 0, len(chains))
	for _, ch := range chains {
		if c := (seqCursor{rest: ch}); c.settle() {
			cur = append(cur, c)
		}
	}
	for len(cur) > 0 {
		// lo is the chain to run, bound the smallest head among the
		// others: lo's events below bound precede every other chain.
		lo, bound := 0, ^uint64(0)
		for i := 1; i < len(cur); i++ {
			switch s := cur[i].seq(); {
			case s < cur[lo].seq():
				lo, bound = i, cur[lo].seq()
			case s < bound:
				bound = s
			}
		}
		c := &cur[lo]
		live := true
		for live && c.seq() < bound {
			visit(&c.rest[0].Events[c.i])
			c.i++
			live = c.settle()
		}
		if !live {
			cur = append(cur[:lo], cur[lo+1:]...)
		}
	}
}

// seqCursor is one chain's position in a WalkSeq merge: event i of
// the first remaining batch.
type seqCursor struct {
	rest []*vm.Batch
	i    int
}

func (c *seqCursor) seq() uint64 { return c.rest[0].Events[c.i].Seq }

// settle steps past exhausted (or empty) batches and reports whether
// the chain has an event left.
func (c *seqCursor) settle() bool {
	for len(c.rest) > 0 && c.i >= len(c.rest[0].Events) {
		c.rest, c.i = c.rest[1:], 0
	}
	return len(c.rest) > 0
}

// pool is a fixed worker pool for window-internal parallelism.
// Submitted tasks must be independent; run is the barrier.
type pool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// newPool starts workers goroutines (minimum 1).
func newPool(workers int) *pool {
	if workers <= 0 {
		workers = 1
	}
	p := &pool{tasks: make(chan func(), 16)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// run executes independent tasks to completion behind a barrier: a
// single task runs inline on the caller (no dispatch overhead),
// several run on the pool.
func (p *pool) run(tasks []func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, f := range tasks {
		f := f
		p.tasks <- func() {
			defer wg.Done()
			f()
		}
	}
	wg.Wait()
}

// close stops the workers after draining submitted tasks.
func (p *pool) close() {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
		p.tasks = nil
	}
}

// groupChains splits a window into per-thread chains, preserving each
// thread's batch order, and reports the largest TID seen. Chains are
// the unit the pipeline dispatches to workers and WalkSeq merges.
func groupChains(w []*vm.Batch) (chains [][]*vm.Batch, maxTID int) {
	byTID := make(map[int]int) // tid → chain index
	for _, b := range w {
		if b.TID > maxTID {
			maxTID = b.TID
		}
		if i, ok := byTID[b.TID]; ok {
			chains[i] = append(chains[i], b)
		} else {
			byTID[b.TID] = len(chains)
			chains = append(chains, []*vm.Batch{b})
		}
	}
	return chains, maxTID
}
