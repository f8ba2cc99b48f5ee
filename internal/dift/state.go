package dift

import (
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// joinSrc folds the labels of the event's source registers.
func joinSrc[L comparable](dom Domain[L], regs *[isa.NumRegs]L, ev *vm.Event) L {
	var l L
	for i := 0; i < ev.NSrc; i++ {
		l = dom.Join(l, regs[ev.SrcRegs[i]])
	}
	return l
}

// step applies the label effects of one non-blocked event to the
// engine's register bank and shadow memory, firing sinks as it goes.
// It is the DIFT propagation transfer function, the single place the
// semantics live: inline analysis and the offloaded pipeline both
// reach it through OnEvent.
//
// For a fixed domain, the labels step writes depend only on the event
// and the labels it reads.
func (e *Engine[L]) step(ev *vm.Event) {
	var zero L
	dom := e.dom
	regs := e.regFile(ev.TID)
	// Register label writes are guarded with DstReg > 0: r0 is the
	// discard register — the machine drops writes to it and it always
	// reads 0 — so labeling it would let a discarded computation
	// over-taint every later use of the constant 0 (regs[0] stays at
	// the zero label forever, matching the value).
	switch ev.Kind {
	case vm.EvInput:
		if ev.DstReg > 0 && ev.Instr.Op == isa.IN {
			regs[ev.DstReg] = dom.Transfer(ev, dom.Source(ev))
		} else if ev.DstReg > 0 {
			regs[ev.DstReg] = zero // INAVAIL is not a source
		}
	case vm.EvCompute, vm.EvCas:
		if ev.DstReg > 0 {
			if ev.NSrc == 0 && ev.SrcMem == vm.NoAddr {
				regs[ev.DstReg] = zero // a constant (MOVI) untaints
			} else {
				src := joinSrc(dom, regs, ev)
				if ev.SrcMem != vm.NoAddr { // CAS reads memory too
					src = dom.Join(src, e.mem.Get(ev.SrcMem))
				}
				regs[ev.DstReg] = dom.Transfer(ev, src)
			}
		}
		if ev.DstMem != vm.NoAddr {
			// CAS success swapped the *constant* Imm into the cell
			// (exec.go stores ins.Imm), so the cell is cleared exactly
			// like a MOVI destination.
			e.mem.Set(ev.DstMem, zero)
		}
	case vm.EvLoad:
		if ev.DstReg > 0 {
			regs[ev.DstReg] = dom.Transfer(ev, e.mem.Get(ev.SrcMem))
		}
	case vm.EvStore:
		e.mem.Set(ev.DstMem, dom.Transfer(ev, joinSrc(dom, regs, ev)))
	case vm.EvOutput:
		l := joinSrc(dom, regs, ev)
		for _, s := range e.sinks {
			s.OnOutput(ev, l)
		}
	case vm.EvBranch, vm.EvCall:
		if ev.Instr.Op == isa.BRR || ev.Instr.Op == isa.CALLR {
			l := regs[int(ev.Instr.Rs1)]
			for _, s := range e.sinks {
				s.OnIndirectBranch(ev, l)
			}
		}
	case vm.EvSpawn:
		// The spawned thread's r1 receives the argument; propagate
		// its label to the new thread's register file.
		child := int(ev.DstVal)
		arg := regs[int(ev.Instr.Rs1)]
		if ev.DstReg > 0 {
			regs[ev.DstReg] = zero // tid is not input-derived
		}
		e.regFile(child)[1] = arg
	case vm.EvFlag:
		if ev.DstMem != vm.NoAddr {
			e.mem.Set(ev.DstMem, zero) // flag constants are untainted
		}
	}
}

// Relevant reports whether the engine does anything for ev: whether
// the event can read or write a label or reach a sink. The pipeline's
// recorder uses it to drop the rest of the stream (plain branches,
// sync operations with no label effect, blocked retries) before
// copying, which is most of the volume on control-heavy code.
func Relevant(ev *vm.Event) bool {
	if ev.Blocked {
		return false
	}
	switch ev.Kind {
	case vm.EvInput:
		return ev.DstReg >= 0
	case vm.EvCompute, vm.EvCas:
		return ev.DstReg >= 0
	case vm.EvLoad, vm.EvStore, vm.EvOutput, vm.EvSpawn:
		return true
	case vm.EvFlag:
		return ev.DstMem != vm.NoAddr
	case vm.EvBranch, vm.EvCall:
		return ev.Instr.Op == isa.BRR || ev.Instr.Op == isa.CALLR
	}
	return false
}
