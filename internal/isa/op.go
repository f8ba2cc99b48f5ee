// Package isa defines the instruction set of the scaldift virtual
// machine: a 64-bit, word-addressed RISC-style ISA with explicit
// input/output, thread, and synchronization instructions.
//
// The ISA stands in for native x86 in the original paper: dynamic
// information flow tracking only needs a stream of dataflow events
// (destination ← sources) over registers and memory, plus control
// transfers and input/output boundaries. Programs are either built
// programmatically (Builder) or assembled from text (Assemble).
package isa

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. Arithmetic and comparison instructions write Rd from
// Rs1/Rs2 (or Imm for the -I forms). Memory instructions compute the
// effective address Rs1+Imm. Control instructions use Target (a label
// resolved to an instruction index by the assembler/builder).
const (
	NOP  Op = iota
	HALT    // stop the current thread
	FAIL    // stop the whole machine, marking the run as failed

	// Data movement.
	MOVI // Rd = Imm
	MOV  // Rd = Rs1

	// Arithmetic / logic: Rd = Rs1 op Rs2.
	ADD
	SUB
	MUL
	DIV // division by zero faults the thread
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	ADDI // Rd = Rs1 + Imm
	MULI // Rd = Rs1 * Imm
	ANDI // Rd = Rs1 & Imm

	// Comparisons: Rd = (Rs1 op Rs2) ? 1 : 0.
	CMPEQ
	CMPNE
	CMPLT
	CMPLE
	CMPGT
	CMPGE

	// Memory: word addressed. Effective address = Rs1 + Imm.
	LOAD  // Rd = Mem[Rs1+Imm]
	STORE // Mem[Rs1+Imm] = Rs2
	ALLOC // Rd = address of a fresh block of Rs1 words (bump allocator)

	// Control flow.
	BR    // PC = Target
	BEQ   // if Rs1 == Rs2: PC = Target
	BNE   // if Rs1 != Rs2: PC = Target
	BLT   // if Rs1 <  Rs2: PC = Target
	BGE   // if Rs1 >= Rs2: PC = Target
	BEQZ  // if Rs1 == 0:   PC = Target
	BNEZ  // if Rs1 != 0:   PC = Target
	CALL  // push return PC on the call stack; PC = Target
	RET   // pop the call stack
	BRR   // PC = Rs1 (indirect jump; the attack-detection target)
	CALLR // push return PC; PC = Rs1 (indirect call)

	// Input/output. IN is the canonical taint source, OUT the sink.
	IN      // Rd = next word from input channel Imm
	INAVAIL // Rd = number of words remaining on input channel Imm
	OUT     // append Rs1 to output channel Imm

	// Threads.
	SPAWN // Rd = tid of a new thread started at Target with arg Rs1 in r1
	JOIN  // block until thread Rs1 halts

	// Synchronization. Lock/barrier/flag objects live in memory at
	// the effective address Rs1+Imm so tools can observe their
	// addresses.
	LOCK    // acquire
	UNLOCK  // release
	BARRIER // block until Rs2 threads have arrived at this barrier
	FLAGSET // Mem[Rs1+Imm] = 1 (release-style flag publication)
	FLAGCLR // Mem[Rs1+Imm] = 0
	FLAGWT  // block until Mem[Rs1+Imm] != 0 (acquire-style spin wait)
	CAS     // Rd = old value; if Mem[Rs1+Imm]==Rs2old(Imm2)... see doc
	YIELD   // voluntarily end the scheduling quantum

	// ASSERT faults the thread (and marks the run failed) if Rs1 == 0.
	ASSERT

	opCount
)

// CAS semantics: Rd = Mem[Rs1]; if Rd == Rs2 then Mem[Rs1] = Imm.
// (Compare value comes from Rs2, the swapped-in value from Imm.)

// opInfo describes the operand usage of each opcode, which drives both
// the assembler and the generic dataflow event construction in the VM.
type opInfo struct {
	name     string
	readsR1  bool // reads Rs1
	readsR2  bool // reads Rs2
	writesRd bool // writes Rd
	stores   bool // writes Mem[Rs1+Imm]
	branch   bool // conditional or unconditional control transfer
	hasImm   bool
	hasTgt   bool // uses Target
}

var opTable = [opCount]opInfo{
	NOP:     {name: "nop"},
	HALT:    {name: "halt"},
	FAIL:    {name: "fail"},
	MOVI:    {name: "movi", writesRd: true, hasImm: true},
	MOV:     {name: "mov", readsR1: true, writesRd: true},
	ADD:     {name: "add", readsR1: true, readsR2: true, writesRd: true},
	SUB:     {name: "sub", readsR1: true, readsR2: true, writesRd: true},
	MUL:     {name: "mul", readsR1: true, readsR2: true, writesRd: true},
	DIV:     {name: "div", readsR1: true, readsR2: true, writesRd: true},
	MOD:     {name: "mod", readsR1: true, readsR2: true, writesRd: true},
	AND:     {name: "and", readsR1: true, readsR2: true, writesRd: true},
	OR:      {name: "or", readsR1: true, readsR2: true, writesRd: true},
	XOR:     {name: "xor", readsR1: true, readsR2: true, writesRd: true},
	SHL:     {name: "shl", readsR1: true, readsR2: true, writesRd: true},
	SHR:     {name: "shr", readsR1: true, readsR2: true, writesRd: true},
	ADDI:    {name: "addi", readsR1: true, writesRd: true, hasImm: true},
	MULI:    {name: "muli", readsR1: true, writesRd: true, hasImm: true},
	ANDI:    {name: "andi", readsR1: true, writesRd: true, hasImm: true},
	CMPEQ:   {name: "cmpeq", readsR1: true, readsR2: true, writesRd: true},
	CMPNE:   {name: "cmpne", readsR1: true, readsR2: true, writesRd: true},
	CMPLT:   {name: "cmplt", readsR1: true, readsR2: true, writesRd: true},
	CMPLE:   {name: "cmple", readsR1: true, readsR2: true, writesRd: true},
	CMPGT:   {name: "cmpgt", readsR1: true, readsR2: true, writesRd: true},
	CMPGE:   {name: "cmpge", readsR1: true, readsR2: true, writesRd: true},
	LOAD:    {name: "load", readsR1: true, writesRd: true, hasImm: true},
	STORE:   {name: "store", readsR1: true, readsR2: true, stores: true, hasImm: true},
	ALLOC:   {name: "alloc", readsR1: true, writesRd: true},
	BR:      {name: "br", branch: true, hasTgt: true},
	BEQ:     {name: "beq", readsR1: true, readsR2: true, branch: true, hasTgt: true},
	BNE:     {name: "bne", readsR1: true, readsR2: true, branch: true, hasTgt: true},
	BLT:     {name: "blt", readsR1: true, readsR2: true, branch: true, hasTgt: true},
	BGE:     {name: "bge", readsR1: true, readsR2: true, branch: true, hasTgt: true},
	BEQZ:    {name: "beqz", readsR1: true, branch: true, hasTgt: true},
	BNEZ:    {name: "bnez", readsR1: true, branch: true, hasTgt: true},
	CALL:    {name: "call", branch: true, hasTgt: true},
	RET:     {name: "ret", branch: true},
	BRR:     {name: "brr", readsR1: true, branch: true},
	CALLR:   {name: "callr", readsR1: true, branch: true},
	IN:      {name: "in", writesRd: true, hasImm: true},
	INAVAIL: {name: "inavail", writesRd: true, hasImm: true},
	OUT:     {name: "out", readsR1: true, hasImm: true},
	SPAWN:   {name: "spawn", readsR1: true, writesRd: true, hasTgt: true},
	JOIN:    {name: "join", readsR1: true},
	LOCK:    {name: "lock", readsR1: true, hasImm: true},
	UNLOCK:  {name: "unlock", readsR1: true, hasImm: true},
	BARRIER: {name: "barrier", readsR1: true, readsR2: true, hasImm: true},
	FLAGSET: {name: "flagset", readsR1: true, stores: true, hasImm: true},
	FLAGCLR: {name: "flagclr", readsR1: true, stores: true, hasImm: true},
	FLAGWT:  {name: "flagwt", readsR1: true, hasImm: true},
	CAS:     {name: "cas", readsR1: true, readsR2: true, writesRd: true, stores: true, hasImm: true},
	YIELD:   {name: "yield"},
	ASSERT:  {name: "assert", readsR1: true},
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opTable) && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < opCount && opTable[op].name != "" }

// ReadsRs1 reports whether the opcode reads register operand Rs1.
func (op Op) ReadsRs1() bool { return opTable[op].readsR1 }

// ReadsRs2 reports whether the opcode reads register operand Rs2.
func (op Op) ReadsRs2() bool { return opTable[op].readsR2 }

// WritesRd reports whether the opcode writes register operand Rd.
func (op Op) WritesRd() bool { return opTable[op].writesRd }

// Stores reports whether the opcode writes memory at Rs1+Imm.
func (op Op) Stores() bool { return opTable[op].stores }

// IsBranch reports whether the opcode may transfer control.
func (op Op) IsBranch() bool { return opTable[op].branch }

// HasTarget reports whether the opcode carries a Target label.
func (op Op) HasTarget() bool { return opTable[op].hasTgt }

// IsConditional reports whether the opcode is a conditional branch
// (its outcome depends on register values).
func (op Op) IsConditional() bool {
	switch op {
	case BEQ, BNE, BLT, BGE, BEQZ, BNEZ:
		return true
	}
	return false
}

// opByName maps assembler mnemonics to opcodes.
var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for op := Op(0); op < opCount; op++ {
		if opTable[op].name != "" {
			m[opTable[op].name] = op
		}
	}
	return m
}()

// OpByName returns the opcode for an assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}
