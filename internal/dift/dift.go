// Package dift implements the core dynamic information flow tracking
// engine of the paper: a VM tool that maintains a taint label for
// every register and memory word and propagates labels along dynamic
// data dependences from program inputs to computed values.
//
// The engine is generic over a taint Domain. The paper instantiates
// the same framework three ways, and so do we:
//
//   - boolean taint (security; §3.3) — Bool domain,
//   - program-counter taint (bug location; §3.3) — PC domain, where a
//     tainted location carries the PC of the most recent instruction
//     that wrote it,
//   - lineage-set taint (data validation; §3.4) — lineage.Domain, the
//     roBDD-backed domain in internal/lineage; labels are bdd.Ref
//     handles and its Recorder sink answers per-output provenance
//     queries after the run.
//
// A domain plugs in by implementing Domain[L] for a comparable label
// type whose zero value means "untainted" and instantiating the
// engine with NewEngine[L]; register and memory labels live in the
// generic shadow.Mem[L], so adding a domain needs no engine changes.
package dift

import (
	"scaldift/internal/isa"
	"scaldift/internal/shadow"
	"scaldift/internal/vm"
)

// Domain defines a taint label algebra. The zero value of L must mean
// "untainted"; Join must be commutative and associative with zero as
// identity.
type Domain[L comparable] interface {
	// Source returns the label for a fresh input word (IN).
	Source(ev *vm.Event) L
	// Join combines two labels.
	Join(a, b L) L
	// Transfer maps the joined source label to the destination label
	// for an executed instruction. Plain domains return src
	// unchanged; the PC domain rewrites any non-zero src to the
	// current statement.
	Transfer(ev *vm.Event, src L) L
}

// Policy selects propagation rules that the paper treats as
// application-specific choices.
type Policy struct {
	// TrackAddresses also propagates taint from the address register
	// of loads and stores into the accessed value (pointer taint).
	TrackAddresses bool
	// ClearOnConst treats constant writes (MOVI) as untainting, the
	// conventional rule. Disable to keep labels sticky for ablation.
	ClearOnConst bool
}

// DefaultPolicy is the propagation rule set used by the paper's
// security application.
func DefaultPolicy() Policy { return Policy{ClearOnConst: true} }

// Sink receives taint observations at information-flow sinks.
type Sink[L comparable] interface {
	// OnOutput fires for each OUT with the label of the value.
	OnOutput(ev *vm.Event, label L)
	// OnIndirectBranch fires for BRR/CALLR with the label of the
	// target register — the attack-detection hook.
	OnIndirectBranch(ev *vm.Event, label L)
}

// Engine is the taint-propagation tool. Attach it to a vm.Machine.
type Engine[L comparable] struct {
	dom    Domain[L]
	pol    Policy
	regs   [][isa.NumRegs]L
	mem    *shadow.Mem[L]
	sinks  []Sink[L]
	zero   L
	events uint64
}

// NewEngine creates a DIFT engine over the given domain and policy.
func NewEngine[L comparable](dom Domain[L], pol Policy) *Engine[L] {
	return &Engine[L]{dom: dom, pol: pol, mem: shadow.NewMem[L]()}
}

// AddSink registers a sink.
func (e *Engine[L]) AddSink(s Sink[L]) { e.sinks = append(e.sinks, s) }

// RegTaint returns the label of register r in thread tid.
func (e *Engine[L]) RegTaint(tid int, r int) L {
	if tid >= len(e.regs) || r < 0 || r >= isa.NumRegs {
		return e.zero
	}
	return e.regs[tid][r]
}

// MemTaint returns the label of memory word addr.
func (e *Engine[L]) MemTaint(addr int64) L { return e.mem.Get(addr) }

// SetMemTaint force-sets a memory label (used by tests and by tools
// that seed taint at non-IN boundaries).
func (e *Engine[L]) SetMemTaint(addr int64, l L) { e.mem.Set(addr, l) }

// TaintedWords returns the number of memory words currently tainted.
func (e *Engine[L]) TaintedWords() int { return e.mem.Tainted() }

// ShadowSizeWords returns the allocated shadow memory size in cells,
// for memory-overhead reporting.
func (e *Engine[L]) ShadowSizeWords() int { return e.mem.SizeWords() }

// Events returns how many instruction events the engine processed.
func (e *Engine[L]) Events() uint64 { return e.events }

// Reset clears all taint state.
func (e *Engine[L]) Reset() {
	e.regs = nil
	e.mem.Clear()
	e.events = 0
}

// Regs implements RegBank, growing the per-thread file on demand.
func (e *Engine[L]) Regs(tid int) *[isa.NumRegs]L {
	for tid >= len(e.regs) {
		e.regs = append(e.regs, [isa.NumRegs]L{})
	}
	return &e.regs[tid]
}

// OnEvent implements vm.Tool: propagate taint for one instruction.
// The propagation semantics live in Step, which the offloaded
// pipeline (internal/pipeline) shares.
func (e *Engine[L]) OnEvent(m *vm.Machine, ev *vm.Event) {
	if ev.Blocked {
		return
	}
	e.events++
	Step(e.dom, e.pol, e, e.mem, e.sinks, ev)
}

var _ vm.Tool = (*Engine[bool])(nil)
