package pipeline

import (
	"sort"

	"scaldift/internal/dift"
	"scaldift/internal/vm"
)

// sinkRec is one deferred sink observation. Propagation records
// instead of firing so the pipeline can replay sinks in global
// sequence order, matching the inline engine exactly. The event is
// stored BY VALUE: the original *vm.Event points into a recorder
// batch that returns to the pool right after its window, so a sink
// holding that pointer past the callback would watch its event be
// overwritten by an unrelated one (the pooled-reuse hazard pinned by
// TestSinkEventsSurvivePoolReuse).
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

func (h difthandler[L]) Sync(b *vm.Batch) {
	// Global ordering point (the window was already drained): apply
	// the communication event by itself.
	h.p.applyOrdered([]*vm.Batch{b})
}

// processWindow propagates one window: concurrently when its
// per-thread chains provably touch disjoint memory (per the adaptive
// conflict analysis in learner.go), otherwise as an ordered
// sequential merge.
func (p *Pipeline[L]) processWindow(w []*vm.Batch) {
	chains, maxTID := groupChains(w)
	p.ensureTID(maxTID)
	if len(chains) == 1 {
		// One thread: its batches are already in both program and
		// global order, so propagate directly with no Seq sort. Sink
		// observations still go through capture/deliver — that is the
		// stable-copy guarantee, not an ordering step.
		p.applyChain(chains[0])
		return
	}
	plan := p.learner.analyze(chains)
	if plan.kind == planOrdered {
		p.applyOrdered(w)
		return
	}
	p.applyParallel(chains, plan, w)
}

// applyChain propagates one thread's batch chain in order on the
// consumer goroutine (the events are already globally ordered
// relative to everything processed so far), then delivers the
// captured sink observations.
func (p *Pipeline[L]) applyChain(ch []*vm.Batch) {
	sh := p.mem.ClaimAll()
	p.capBuf.recs = p.recsBuf[:0]
	for _, b := range ch {
		dift.StepBatch(p.dom, p.pol, p, sh, p.sinkBuf, b.Events)
		p.events += uint64(len(b.Events))
	}
	p.deliver(p.capBuf.recs)
	p.recsBuf = p.capBuf.recs[:0]
}

// applyOrdered propagates the batches' events one by one in global
// sequence order (WalkSeq) — the exact inline order — then delivers
// the captured sink observations. Used for sync batches and
// conflicting windows.
func (p *Pipeline[L]) applyOrdered(w []*vm.Batch) {
	sh := p.mem.ClaimAll()
	p.capBuf.recs = p.recsBuf[:0]
	WalkSeq(w, func(ev *vm.Event) {
		if ev.Kind == vm.EvSpawn {
			p.ensureTID(int(ev.DstVal))
		}
		dift.Step(p.dom, p.pol, p, sh, p.sinkBuf, ev)
		p.events++
	})
	p.deliver(p.capBuf.recs)
	p.recsBuf = p.capBuf.recs[:0]
}

// applyParallel dispatches the plan's ownership groups to the worker
// pool — each group claims its shards before dispatch and propagates
// its chains through a lock-free owner View — then replays the
// recorded sink observations in sequence order. The pool.run
// dispatch/barrier pair is the fence required by the shadow.Epoch
// contract: ownership is assigned before it and revised only after.
// All per-owner machinery (views, captures, task closures) is cached
// on the Pipeline, so dispatching a window allocates nothing.
func (p *Pipeline[L]) applyParallel(chains [][]*vm.Batch, plan windowPlan, w []*vm.Batch) {
	p.mem.BeginEpoch()
	n := len(plan.groups)
	p.ensureOwners(n)
	for g := 0; g < n; g++ {
		p.claimMask(plan.masks[g], int32(g))
		p.caps[g].recs = p.caps[g].recs[:0]
	}
	p.curChains, p.curGroups = chains, plan.groups
	p.pool.run(p.tasks[:n])
	recs := p.recsBuf[:0]
	for g := 0; g < n; g++ {
		recs = append(recs, p.caps[g].recs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ev.Seq < recs[j].ev.Seq })
	for _, b := range w {
		p.events += uint64(len(b.Events))
	}
	p.deliver(recs)
	p.recsBuf = recs[:0]
}

// ensureOwners grows the cached per-owner state to n owners.
func (p *Pipeline[L]) ensureOwners(n int) {
	for len(p.tasks) < n {
		g := len(p.tasks)
		c := &capture[L]{}
		p.views = append(p.views, p.mem.View(int32(g)))
		p.caps = append(p.caps, c)
		p.wsinks = append(p.wsinks, []dift.Sink[L]{c})
		p.tasks = append(p.tasks, func() { p.runGroup(g) })
	}
}

// runGroup propagates the current window's group g: its chains, in
// window order, through owner g's view.
func (p *Pipeline[L]) runGroup(g int) {
	sh := p.views[g]
	sinks := p.wsinks[g]
	for _, ci := range p.curGroups[g] {
		for _, b := range p.curChains[ci] {
			dift.StepBatch(p.dom, p.pol, p, sh, sinks, b.Events)
		}
	}
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

// access is one chain's memory footprint.
type access struct {
	reads  map[int64]struct{}
	writes map[int64]struct{}
}

// chainAccess scans a chain for the addresses its propagation reads
// and writes. Register traffic is thread-private and needs no
// analysis; only the Step cases that touch the memory store count.
func chainAccess(ch []*vm.Batch) access {
	a := access{reads: map[int64]struct{}{}, writes: map[int64]struct{}{}}
	for _, b := range ch {
		for i := range b.Events {
			ev := &b.Events[i]
			switch ev.Kind {
			case vm.EvLoad:
				a.reads[ev.SrcMem] = struct{}{}
			case vm.EvStore:
				a.writes[ev.DstMem] = struct{}{}
			case vm.EvCas:
				a.reads[ev.SrcMem] = struct{}{}
				if ev.DstMem != vm.NoAddr {
					a.writes[ev.DstMem] = struct{}{}
				}
			case vm.EvFlag:
				if ev.DstMem != vm.NoAddr {
					a.writes[ev.DstMem] = struct{}{}
				}
			}
		}
	}
	return a
}

// claimMask claims every shard named by a conflict mask for owner:
// bit i of the mask is shard i (see maskBit).
func (p *Pipeline[L]) claimMask(mask uint64, owner int32) {
	for s := 0; s < epochShards; s++ {
		if mask&(1<<s) != 0 {
			p.mem.Claim(s, owner)
		}
	}
}

// overlaps reports whether the two address sets intersect.
func overlaps(a, b map[int64]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for addr := range a {
		if _, ok := b[addr]; ok {
			return true
		}
	}
	return false
}
