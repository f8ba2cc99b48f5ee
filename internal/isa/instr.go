package isa

import (
	"fmt"
	"strings"
)

// NumRegs is the number of general-purpose registers per thread.
// By convention r0 is the zero register (writes to it are discarded),
// r1 carries the thread argument, and r31 is the stack pointer for
// programs that maintain one.
const NumRegs = 32

// Instr is a single decoded instruction. Instructions are stored
// decoded (no binary encoding) — the VM interprets them directly.
type Instr struct {
	Op     Op
	Rd     uint8 // destination register
	Rs1    uint8 // first source register / address base
	Rs2    uint8 // second source register
	Imm    int64 // immediate / address displacement / CAS new value
	Target int   // resolved instruction index for control transfers

	// Line is the statement identifier: the source line number in
	// the assembly text (or the builder-assigned statement id).
	// Fault-location results are reported in terms of Line.
	Line int
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	info := opTable[i.Op]
	parts := []string{i.Op.String()}
	add := func(s string) { parts = append(parts, s) }
	if info.writesRd {
		add(fmt.Sprintf("r%d", i.Rd))
	}
	if info.readsR1 {
		add(fmt.Sprintf("r%d", i.Rs1))
	}
	if info.readsR2 {
		add(fmt.Sprintf("r%d", i.Rs2))
	}
	if info.hasImm {
		add(fmt.Sprintf("%d", i.Imm))
	}
	if info.hasTgt {
		add(fmt.Sprintf("@%d", i.Target))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return parts[0] + " " + strings.Join(parts[1:], ", ")
}

// Program is an executable unit: code, initial data image, and
// metadata used by analyses and reporting.
type Program struct {
	Name   string
	Instrs []Instr
	// Labels maps label names to instruction indices.
	Labels map[string]int
	// Data is the initial data segment, loaded at word address 0.
	Data []int64
	// Source holds the original assembly lines (1-based via Line),
	// when the program came from the assembler; may be nil.
	Source []string
	// Funcs maps function names to [start,end) instruction ranges,
	// populated by the assembler from .func/.endfunc directives and
	// by the builder from Func sections. Used by selective tracing.
	Funcs map[string]FuncRange
}

// FuncRange is a half-open range of instruction indices forming a
// function body.
type FuncRange struct {
	Start, End int
}

// LineOf returns the statement id of instruction index pc, or -1.
func (p *Program) LineOf(pc int) int {
	if pc < 0 || pc >= len(p.Instrs) {
		return -1
	}
	return p.Instrs[pc].Line
}

// Validate checks structural invariants: opcodes defined, register
// indices in range, and branch targets within the code.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q has no instructions", p.Name)
	}
	for idx, ins := range p.Instrs {
		if !ins.Op.Valid() {
			return fmt.Errorf("isa: %q instr %d: invalid opcode %d", p.Name, idx, ins.Op)
		}
		if ins.Rd >= NumRegs || ins.Rs1 >= NumRegs || ins.Rs2 >= NumRegs {
			return fmt.Errorf("isa: %q instr %d (%s): register out of range", p.Name, idx, ins)
		}
		if ins.Op.HasTarget() && (ins.Target < 0 || ins.Target >= len(p.Instrs)) {
			return fmt.Errorf("isa: %q instr %d (%s): target %d out of range", p.Name, idx, ins, ins.Target)
		}
	}
	return nil
}

// Disassemble renders the whole program with instruction indices and
// label annotations, one instruction per line.
func (p *Program) Disassemble() string {
	byIndex := make(map[int][]string)
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var b strings.Builder
	for idx, ins := range p.Instrs {
		for _, lbl := range byIndex[idx] {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		fmt.Fprintf(&b, "  %4d  %s\n", idx, ins.String())
	}
	return b.String()
}
