package dift

import (
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// Store abstracts the memory-label container a propagation step reads
// and writes: a paged shadow.Mem, inline and in the offloaded pipeline
// (internal/pipeline) alike.
type Store[L comparable] interface {
	Get(addr int64) L
	Set(addr int64, l L)
}

// RegBank hands out per-thread register label files. Implementations
// must return a stable pointer for a given tid; Step only asks for
// the executing thread and, on spawn, the child thread.
type RegBank[L comparable] interface {
	Regs(tid int) *[isa.NumRegs]L
}

// joinSrc folds the labels of the event's source registers.
func joinSrc[L comparable](dom Domain[L], regs *[isa.NumRegs]L, ev *vm.Event) L {
	var l L
	for i := 0; i < ev.NSrc; i++ {
		l = dom.Join(l, regs[ev.SrcRegs[i]])
	}
	return l
}

// Step applies the label effects of one non-blocked event to the
// given register bank and memory store, firing sinks as it goes. It
// is the DIFT propagation transfer function — the single place the
// semantics live — shared verbatim by the inline Engine and by the
// offloaded pipeline, so the two cannot drift apart (the
// differential suite in internal/pipeline checks that they do not).
//
// Step is pure with respect to everything except (regs, mem, sinks):
// for a fixed domain and policy, the labels it writes depend only on
// the event and the labels it reads.
func Step[L comparable](dom Domain[L], pol Policy, bank RegBank[L], mem Store[L], sinks []Sink[L], ev *vm.Event) {
	var zero L
	regs := bank.Regs(ev.TID)
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
		if ev.DstReg < 0 {
			return
		}
		src := joinSrc(dom, regs, ev)
		if ev.SrcMem != vm.NoAddr { // CAS reads memory too
			src = dom.Join(src, mem.Get(ev.SrcMem))
		}
		// Read the expected-value register's label BEFORE the Rd
		// update: when Rd == Rs2 the memory write below must see the
		// pre-CAS label, not the label of the old value that just
		// landed in Rd (a former aliasing bug, pinned by the Rd == Rs2
		// CAS tests).
		var srcM L
		if ev.DstMem != vm.NoAddr {
			srcM = regs[int(ev.Instr.Rs2)]
		}
		if ev.DstReg > 0 {
			if ev.NSrc == 0 && ev.SrcMem == vm.NoAddr && pol.ClearOnConst {
				regs[ev.DstReg] = zero
			} else {
				regs[ev.DstReg] = dom.Transfer(ev, src)
			}
		}
		if ev.DstMem != vm.NoAddr {
			// CAS success swapped the *constant* Imm into the cell
			// (exec.go stores ins.Imm). Under ClearOnConst the cell is
			// therefore cleared, exactly like a MOVI destination; with
			// sticky labels the cell keeps a conservative dependence on
			// the expected-value register whose comparison gated the
			// swap. Labeling the cell with Rs2's label unconditionally
			// (the old rule) over-tainted a constant store.
			if pol.ClearOnConst {
				mem.Set(ev.DstMem, zero)
			} else {
				mem.Set(ev.DstMem, dom.Transfer(ev, srcM))
			}
		}
	case vm.EvLoad:
		src := mem.Get(ev.SrcMem)
		if pol.TrackAddresses && ev.AddrReg >= 0 {
			src = dom.Join(src, regs[ev.AddrReg])
		}
		if ev.DstReg > 0 {
			regs[ev.DstReg] = dom.Transfer(ev, src)
		}
	case vm.EvStore:
		src := joinSrc(dom, regs, ev)
		if pol.TrackAddresses && ev.AddrReg >= 0 {
			src = dom.Join(src, regs[ev.AddrReg])
		}
		mem.Set(ev.DstMem, dom.Transfer(ev, src))
	case vm.EvOutput:
		l := joinSrc(dom, regs, ev)
		for _, s := range sinks {
			s.OnOutput(ev, l)
		}
	case vm.EvBranch, vm.EvCall:
		if ev.Instr.Op == isa.BRR || ev.Instr.Op == isa.CALLR {
			l := regs[int(ev.Instr.Rs1)]
			for _, s := range sinks {
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
		bank.Regs(child)[1] = arg
	case vm.EvFlag:
		if ev.DstMem != vm.NoAddr {
			mem.Set(ev.DstMem, zero) // flag constants are untainted
		}
	}
}

// Relevant reports whether Step does anything for ev: whether the
// event can read or write a label or reach a sink. The pipeline's
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
