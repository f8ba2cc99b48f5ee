package pipeline

import (
	"scaldift/internal/dift"
	"scaldift/internal/vm"
)

// sinkRec is one deferred sink observation, recorded in the order
// propagation reached it — global sequence order, as inline. The
// event is stored BY VALUE: the original *vm.Event points into a
// recorder batch that returns to the pool right after its window, so
// a sink holding that pointer past the callback would watch its event
// be overwritten by an unrelated one (the pooled-reuse hazard pinned
// by TestSinkEventsSurvivePoolReuse).
type sinkRec[L comparable] struct {
	ev     vm.Event
	label  L
	branch bool
}

// capture is the dift.Sink propagation runs against; deliver replays
// what it records into the registered sinks.
type capture[L comparable] struct{ recs []sinkRec[L] }

func (c *capture[L]) OnOutput(ev *vm.Event, l L) {
	c.recs = append(c.recs, sinkRec[L]{ev: *ev, label: l})
}

func (c *capture[L]) OnIndirectBranch(ev *vm.Event, l L) {
	c.recs = append(c.recs, sinkRec[L]{ev: *ev, label: l, branch: true})
}

// difthandler adapts Pipeline to the Consumer's BatchHandler.
type difthandler[L comparable] struct{ p *Pipeline[L] }

func (h difthandler[L]) Window(w []*vm.Batch) { h.p.processWindow(w) }

// Sync batches (spawn) arrive solo after a drain: a one-batch window.
func (h difthandler[L]) Sync(b *vm.Batch) { h.p.processWindow([]*vm.Batch{b}) }

// processWindow propagates one window on the calling goroutine: the
// inline engine's transfer function over the window's events in
// global sequence order — the exact inline order — then the captured
// sink observations. WalkSeq hands over whole single-thread runs, so
// dift.StepBatch keeps its long per-kind loops. Sinks go through
// capture/deliver for the stable-copy guarantee, not for ordering.
func (p *Pipeline[L]) processWindow(w []*vm.Batch) {
	if !singleChain(w) {
		p.stats.Windows++
		p.stats.OrderedMerges++
	}
	p.capBuf.recs = p.capBuf.recs[:0]
	WalkSeq(w, func(run []vm.Event) {
		dift.StepBatch(p.dom, p.pol, p, p.mem, p.sinkBuf, run)
		p.events += uint64(len(run))
	})
	p.deliver(p.capBuf.recs)
}

// deliver replays sink observations (already sequence-ordered) into
// the registered sinks. Each observation is delivered through a
// per-delivery copy, so the *vm.Event a sink receives stays valid
// even if the sink retains it.
func (p *Pipeline[L]) deliver(recs []sinkRec[L]) {
	for i := range recs {
		rc := recs[i]
		for _, s := range p.sinks {
			if rc.branch {
				s.OnIndirectBranch(&rc.ev, rc.label)
			} else {
				s.OnOutput(&rc.ev, rc.label)
			}
		}
	}
}
