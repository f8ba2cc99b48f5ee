package vm

import "sync"

// Batch is a sealed run of copied events in the order they executed:
// Event.Seq ascends within a batch and from each batch to the next.
type Batch struct {
	Events []Event
}

// Recorder is a Tool that offloads analysis: instead of running a
// heavyweight tool inline behind every instruction, it copies the
// reused Event into one open fixed-size batch and hands sealed
// batches to a downstream consumer (internal/pipeline). The machine
// is one goroutine, so events arrive — and leave — in global Seq
// order: the concatenated batches are the inline event stream minus
// what the filter dropped. The work on the execution thread is one
// filter check and one struct copy per event — the compact event
// stream of the paper's decoupled-analysis model.
//
// The batch seals when full and on Flush. Consumed batches should be
// returned with Free so their storage is reused; Free is safe to call
// from the consumer goroutine.
type Recorder struct {
	batchEvents int
	filter      func(*Event) bool
	emit        func(*Batch)
	open        *Batch // the batch being filled; nil between seal and the next event
	pool        sync.Pool
}

// DefaultBatchEvents is the default per-batch capacity. A batch is
// the unit of hand-off, so it is also how often a helper that has
// fallen behind wakes the execution thread parked on the full queue;
// docs/PERF.md has the measurement behind 1024.
const DefaultBatchEvents = 1024

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

// OnEvent implements Tool: copy the event onto the open batch.
func (r *Recorder) OnEvent(m *Machine, ev *Event) {
	if ev.Blocked || (r.filter != nil && !r.filter(ev)) {
		return
	}
	b := r.open
	if b == nil {
		b = r.pool.Get().(*Batch)
		b.Events = b.Events[:0]
		r.open = b //scaldift:ignore poolescape the recorder owns the pool; open holds the one in-flight batch until Flush emits it
	}
	b.Events = append(b.Events, *ev)
	if len(b.Events) >= r.batchEvents {
		r.Flush()
	}
}

// Flush seals the open batch if it holds any events.
func (r *Recorder) Flush() {
	if b := r.open; b != nil {
		r.open = nil
		r.emit(b)
	}
}

// Free returns a consumed batch's storage to the recorder for reuse.
func (r *Recorder) Free(b *Batch) {
	r.pool.Put(b)
}

var _ Tool = (*Recorder)(nil)
