package pipeline

import (
	"scaldift/internal/dift"
	"scaldift/internal/vm"
)

// copySink is the dift.Sink propagation runs against. The event it
// is handed points into a recorder batch that returns to the pool
// right after the handler, so a registered sink holding that pointer
// past the callback would watch its event be overwritten by an
// unrelated one (the pooled-reuse hazard TestSinkEventsSurvivePoolReuse
// pins). Every delivery therefore goes out as a private copy.
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

// handle is the helper thread's whole job: the inline engine's
// transfer function over one batch, whose events are already in the
// order they executed.
func (p *Pipeline[L]) handle(evs []vm.Event) {
	if n := len(evs); n > 0 && evs[0].TID != evs[n-1].TID {
		p.stats.Windows++
		p.stats.OrderedMerges++
	}
	dift.StepBatch(p.dom, p.pol, p, p.mem, p.sinkBuf, evs)
	p.events += uint64(len(evs))
}
