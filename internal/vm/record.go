package vm

import "sync"

// Batch is a sealed run of copied events, all from one thread and in
// that thread's program order. Event.Seq gives the global order, so a
// consumer holding several batches can always reconstruct the exact
// interleaving the inline engine saw.
type Batch struct {
	TID    int
	Events []Event
	// Group identifies the flush that sealed this batch. The recorder
	// always seals every buffer together, so the batches of one group
	// jointly cover a contiguous range of global sequence numbers, and
	// all events of group g precede all events of group g+1. Consumers
	// that reorder work may do so only within whole groups.
	Group uint64
	// Sync marks a solo thread-communication batch: the recorder
	// sealed every per-thread buffer before emitting it, so the batch
	// is a global ordering point the consumer must apply by itself,
	// after everything emitted before it. Today spawn is the one event
	// that needs this (it writes another thread's register labels);
	// the remaining cross-thread channels are memory addresses, which
	// the consumer's Seq-ordered walk orders.
	Sync bool
}

// Recorder is a Tool that offloads analysis: instead of running a
// heavyweight tool inline behind every instruction, it copies the
// reused Event into fixed-size per-thread buffers and hands sealed
// batches to a downstream consumer (internal/pipeline). The work on
// the execution thread is one filter check and one struct copy per
// event — the compact event stream of the paper's decoupled-analysis
// model.
//
// Buffers seal when full, when a thread-communication event (spawn)
// arrives, and on Flush. Consumed batches should be returned with
// Free so their storage is reused; Free is safe to call from the
// consumer goroutine.
type Recorder struct {
	batchEvents int
	filter      func(*Event) bool
	emit        func(*Batch)
	bufs        []*Batch // open per-thread buffers, indexed by TID
	group       uint64   // current flush group
	pool        sync.Pool
}

// DefaultBatchEvents is the default per-batch capacity.
const DefaultBatchEvents = 256

// NewRecorder creates a recorder sealing batches of up to batchEvents
// events (DefaultBatchEvents if <= 0). filter, when non-nil, selects
// the events worth copying (blocked events are always dropped); emit
// receives every sealed batch, on the execution thread, in seal
// order.
func NewRecorder(batchEvents int, filter func(*Event) bool, emit func(*Batch)) *Recorder {
	if batchEvents <= 0 {
		batchEvents = DefaultBatchEvents
	}
	r := &Recorder{batchEvents: batchEvents, filter: filter, emit: emit}
	r.pool.New = func() any {
		return &Batch{Events: make([]Event, 0, batchEvents)}
	}
	return r
}

// OnEvent implements Tool: copy the event into its thread's buffer.
func (r *Recorder) OnEvent(m *Machine, ev *Event) {
	if ev.Blocked {
		return
	}
	if ev.Kind == EvSpawn {
		// A communication event: everything recorded so far must be
		// applied before it, and the spawn itself before anything
		// after, so it travels alone between two flushes.
		r.Flush()
		b := r.buf(ev.TID)
		b.Events = append(b.Events, *ev)
		b.Sync = true
		r.seal(ev.TID)
		r.group++
		return
	}
	if r.filter != nil && !r.filter(ev) {
		return
	}
	b := r.buf(ev.TID)
	b.Events = append(b.Events, *ev)
	if len(b.Events) >= r.batchEvents {
		// Seal every buffer, not just the full one: a flush group then
		// covers a contiguous global sequence range, so no sealed
		// batch can ever lag behind already-emitted events of another
		// thread — the invariant downstream reordering relies on.
		r.Flush()
	}
}

// Flush seals every non-empty per-thread buffer and closes the
// current flush group.
func (r *Recorder) Flush() {
	for tid := range r.bufs {
		r.seal(tid)
	}
	r.group++
}

// Free returns a consumed batch's storage to the recorder for reuse.
func (r *Recorder) Free(b *Batch) {
	r.pool.Put(b)
}

// buf returns the open buffer for tid, creating one if needed.
func (r *Recorder) buf(tid int) *Batch {
	for tid >= len(r.bufs) {
		r.bufs = append(r.bufs, nil)
	}
	if r.bufs[tid] == nil {
		b := r.pool.Get().(*Batch)
		b.TID = tid
		b.Events = b.Events[:0]
		b.Sync = false
		r.bufs[tid] = b //scaldift:ignore poolescape the recorder owns the pool; bufs holds at most one in-flight batch per thread until Seal
	}
	return r.bufs[tid]
}

// seal emits tid's buffer if it holds any events.
func (r *Recorder) seal(tid int) {
	if tid >= len(r.bufs) || r.bufs[tid] == nil || len(r.bufs[tid].Events) == 0 {
		return
	}
	b := r.bufs[tid]
	b.Group = r.group
	r.bufs[tid] = nil
	r.emit(b)
}

var _ Tool = (*Recorder)(nil)
