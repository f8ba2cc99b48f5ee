package dift

import (
	"scaldift/internal/vm"
)

// StepBatch applies Step's label effects to a slice of events,
// batching per-event overhead over runs of same-shape work: the
// register file is resolved once per thread run instead of per event,
// and runs of the same event kind execute in tight per-kind loops
// with the policy checks hoisted, instead of re-entering the Step
// dispatch switch for every instruction. On loop-heavy traces —
// exactly what the offloaded pipeline's batches contain — most events
// arrive in long single-kind runs, so the per-event cost drops to the
// domain operations themselves.
//
// Semantics are identical to calling Step on each event in order (the
// differential test in batch_test.go pins this); the per-kind loops
// below are specializations of Step's cases, relying on the event
// shapes the VM actually emits (EvCompute never carries memory
// operands — exec.go populates SrcMem/DstMem only for loads, stores,
// CAS, and flag ops).
//
// The bank must return stable per-tid pointers, which the RegBank
// contract already requires.
func StepBatch[L comparable](dom Domain[L], pol Policy, bank RegBank[L], mem Store[L], sinks []Sink[L], evs []vm.Event) {
	var zero L
	n := len(evs)
	for i := 0; i < n; {
		tid := evs[i].TID
		kind := evs[i].Kind
		j := i + 1
		for j < n && evs[j].Kind == kind && evs[j].TID == tid {
			j++
		}
		regs := bank.Regs(tid)
		switch kind {
		case vm.EvCompute:
			// Step's EvCompute case with the EvCas-only memory-operand
			// branches removed: computes never read or write memory.
			for k := i; k < j; k++ {
				ev := &evs[k]
				if ev.DstReg <= 0 {
					continue // r0 discard or no destination: no label effect
				}
				if ev.NSrc == 0 && pol.ClearOnConst {
					regs[ev.DstReg] = zero
				} else {
					regs[ev.DstReg] = dom.Transfer(ev, joinSrc(dom, regs, ev))
				}
			}
		case vm.EvLoad:
			if pol.TrackAddresses {
				for k := i; k < j; k++ {
					ev := &evs[k]
					src := mem.Get(ev.SrcMem)
					if ev.AddrReg >= 0 {
						src = dom.Join(src, regs[ev.AddrReg])
					}
					if ev.DstReg > 0 {
						regs[ev.DstReg] = dom.Transfer(ev, src)
					}
				}
			} else {
				for k := i; k < j; k++ {
					ev := &evs[k]
					if ev.DstReg > 0 {
						regs[ev.DstReg] = dom.Transfer(ev, mem.Get(ev.SrcMem))
					}
				}
			}
		case vm.EvStore:
			for k := i; k < j; k++ {
				ev := &evs[k]
				src := joinSrc(dom, regs, ev)
				if pol.TrackAddresses && ev.AddrReg >= 0 {
					src = dom.Join(src, regs[ev.AddrReg])
				}
				mem.Set(ev.DstMem, dom.Transfer(ev, src))
			}
		default:
			// Rarer kinds (inputs, CAS, sinks, spawn, flags) keep the
			// shared transfer function.
			for k := i; k < j; k++ {
				Step(dom, pol, bank, mem, sinks, &evs[k])
			}
		}
		i = j
	}
}
