// Package vm implements the scaldift virtual machine: a multithreaded
// interpreter for the mini-ISA (internal/isa) with a dynamic-binary-
// instrumentation-style tool API.
//
// The VM plays the role Pin/valgrind play in the original paper: it
// executes programs and hands attached Tools a per-instruction stream
// of dataflow events (destination ← sources over registers and
// memory), control transfers, input/output boundaries, and
// synchronization operations. Instrumentation overhead is real — an
// attached tool literally slows execution down — which is what lets
// the benchmark harness measure slowdown factors the way the paper
// does.
package vm

import "scaldift/internal/isa"

// EventKind classifies an executed instruction for tools.
type EventKind uint8

// Event kinds.
const (
	EvCompute EventKind = iota // ALU / register movement / alloc
	EvLoad                     // memory read
	EvStore                    // memory write
	EvBranch                   // control transfer (cond or uncond)
	EvCall
	EvRet
	EvInput  // IN / INAVAIL
	EvOutput // OUT
	EvSpawn
	EvJoin
	EvLock
	EvUnlock
	EvBarrier
	EvFlag // FLAGSET / FLAGCLR / FLAGWT
	EvCas
	EvHalt
	EvFail
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	names := [...]string{"compute", "load", "store", "branch", "call", "ret",
		"input", "output", "spawn", "join", "lock", "unlock", "barrier",
		"flag", "cas", "halt", "fail"}
	if int(k) < len(names) {
		return names[k]
	}
	return "event(?)"
}

// NoReg marks an absent register operand in an Event.
const NoReg = -1

// NoAddr marks an absent memory address in an Event.
const NoAddr = int64(-1)

// Event describes one executed instruction to attached tools. The
// machine reuses a single Event value across calls; tools must copy
// anything they retain.
type Event struct {
	Kind EventKind
	TID  int    // executing thread
	Seq  uint64 // global dynamic instruction count (1-based)
	// ThreadSeq is the executing thread's dynamic instruction count
	// (1-based), the per-thread analogue of Seq. Dependence tracking
	// identifies instruction instances by (TID, ThreadSeq), so an
	// offloaded consumer of a recorded (possibly filtered) stream can
	// reconstruct instance ids without replaying the whole schedule.
	// Blocked events repeat the current count; it advances only when
	// the instruction completes.
	ThreadSeq uint64
	PC        int // instruction index
	Instr     *isa.Instr

	// Dataflow: the instruction computed DstReg and/or DstMem from
	// SrcRegs[:NSrc] and/or SrcMem. AddrReg is the register that
	// supplied a memory effective address (a source only under
	// address-taint policies).
	DstReg  int // register written, or NoReg
	DstMem  int64
	SrcRegs [2]int
	NSrc    int
	SrcMem  int64
	AddrReg int

	// Values.
	DstVal int64 // value written to DstReg/DstMem

	// I/O.
	Ch       int   // channel for input/output events
	IOVal    int64 // word read or written
	InputIdx int   // global 0-based index of the input word (IN only)

	Blocked bool // instruction blocked instead of completing
}

// reset clears the per-instruction fields; the machine calls it before
// populating the event for each step.
func (ev *Event) reset() {
	ev.DstReg = NoReg
	ev.DstMem = NoAddr
	ev.NSrc = 0
	ev.SrcMem = NoAddr
	ev.AddrReg = NoReg
	ev.Blocked = false
	ev.Ch = 0
	ev.IOVal = 0
	ev.InputIdx = 0
	ev.DstVal = 0
}

// addSrc appends a source register.
func (ev *Event) addSrc(r uint8) {
	ev.SrcRegs[ev.NSrc] = int(r)
	ev.NSrc++
}

// Tool observes the instruction stream. OnEvent is called after the
// instruction's effects are applied to machine state (registers,
// memory, PC), in program order for the executing thread and in global
// schedule order across threads.
type Tool interface {
	OnEvent(m *Machine, ev *Event)
}

// ToolFunc adapts a function to the Tool interface.
type ToolFunc func(m *Machine, ev *Event)

// OnEvent calls f.
func (f ToolFunc) OnEvent(m *Machine, ev *Event) { f(m, ev) }
