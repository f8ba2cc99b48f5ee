package pipeline

import "scaldift/internal/vm"

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

// defaultWindowBatches is the window size when none is asked for.
const defaultWindowBatches = 4

// NewConsumer creates a consumer delivering windows of about
// windowBatches batches (grown to flush-group boundaries) to h.
func NewConsumer(h BatchHandler, windowBatches int) *Consumer {
	if windowBatches <= 0 {
		windowBatches = defaultWindowBatches
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

// WalkSeq hands visit every event of window w in ascending global Seq
// order — the exact order an inline tool saw them — as runs: a run is
// a non-empty contiguous slice of one batch's events, all of which
// precede every unvisited event of every other thread. Each thread's
// batches are already Seq-ascending in window order, so the walk is a
// k-way merge over the per-thread chains (k is the thread count): it
// repeatedly takes the chain with the smallest head and runs its
// current batch up to the next chain's head. A single-chain window is
// one run per non-empty batch. A run aliases the batch itself and is
// valid only for the call. This is the one walk both offloaded
// analyses are: the DIFT pipeline and the ONTRAC stage.
func WalkSeq(w []*vm.Batch, visit func(run []vm.Event)) {
	if singleChain(w) {
		for _, b := range w {
			if len(b.Events) > 0 {
				visit(b.Events)
			}
		}
		return
	}
	var cur []seqCursor
	for _, ch := range groupChains(w) {
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
		evs, end := c.rest[0].Events, c.i+1
		for end < len(evs) && evs[end].Seq < bound {
			end++
		}
		visit(evs[c.i:end])
		c.i = end
		if !c.settle() {
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

// singleChain reports whether every batch of w is one thread's.
func singleChain(w []*vm.Batch) bool {
	for _, b := range w {
		if b.TID != w[0].TID {
			return false
		}
	}
	return true
}

// groupChains splits a window into per-thread chains, preserving each
// thread's batch order: the chains WalkSeq merges.
func groupChains(w []*vm.Batch) (chains [][]*vm.Batch) {
	byTID := make(map[int]int) // tid → chain index
	for _, b := range w {
		if i, ok := byTID[b.TID]; ok {
			chains[i] = append(chains[i], b)
		} else {
			byTID[b.TID] = len(chains)
			chains = append(chains, []*vm.Batch{b})
		}
	}
	return chains
}
