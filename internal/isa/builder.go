package isa

import "fmt"

// Builder constructs programs programmatically. Labels may be
// referenced before they are defined; Build resolves them.
//
// Each emitted instruction is assigned a monotonically increasing
// statement id (Line), so builder-made programs work with the
// statement-oriented analyses (slicing, fault location) the same way
// assembled programs do.
type Builder struct {
	name    string
	instrs  []Instr
	labels  map[string]int
	pending map[string][]int // label -> instr indices awaiting resolution (targets, or IndirectTo immediates)
	data    []int64
	funcs   map[string]FuncRange
	curFn   string
	fnStart int
	err     error
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		pending: make(map[string][]int),
		funcs:   make(map[string]FuncRange),
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("isa builder %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.instrs)
	return b
}

// Func opens a named function section; EndFunc closes it.
func (b *Builder) Func(name string) *Builder {
	if b.curFn != "" {
		b.fail("nested function %q inside %q", name, b.curFn)
		return b
	}
	b.curFn = name
	b.fnStart = len(b.instrs)
	b.Label(name)
	return b
}

// EndFunc closes the current function section.
func (b *Builder) EndFunc() *Builder {
	if b.curFn == "" {
		b.fail("EndFunc without Func")
		return b
	}
	b.funcs[b.curFn] = FuncRange{Start: b.fnStart, End: len(b.instrs)}
	b.curFn = ""
	return b
}

// Data appends words to the initial data segment and returns the word
// address of the first appended word.
func (b *Builder) Data(words ...int64) int64 {
	addr := int64(len(b.data))
	b.data = append(b.data, words...)
	return addr
}

// Reserve appends n zero words to the data segment and returns the
// word address of the block.
func (b *Builder) Reserve(n int) int64 {
	addr := int64(len(b.data))
	b.data = append(b.data, make([]int64, n)...)
	return addr
}

// emit appends an instruction, assigning its statement id.
func (b *Builder) emit(ins Instr) *Builder {
	ins.Line = len(b.instrs) + 1
	b.instrs = append(b.instrs, ins)
	return b
}

// emitTo appends a control transfer to a (possibly forward) label.
func (b *Builder) emitTo(ins Instr, label string) *Builder {
	if idx, ok := b.labels[label]; ok {
		ins.Target = idx
	} else {
		ins.Target = -1
		b.pending[label] = append(b.pending[label], len(b.instrs))
	}
	return b.emit(ins)
}

// Halt stops the current thread.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: HALT}) }

// Movi sets rd = imm.
func (b *Builder) Movi(rd uint8, imm int64) *Builder {
	return b.emit(Instr{Op: MOVI, Rd: rd, Imm: imm})
}

// Mov sets rd = rs.
func (b *Builder) Mov(rd, rs uint8) *Builder {
	return b.emit(Instr{Op: MOV, Rd: rd, Rs1: rs})
}

// Op3 emits a three-register ALU instruction rd = rs1 op rs2.
func (b *Builder) Op3(op Op, rd, rs1, rs2 uint8) *Builder {
	if !op.ReadsRs2() || !op.WritesRd() {
		b.fail("Op3 with non-3-register opcode %s", op)
	}
	return b.emit(Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 uint8) *Builder { return b.Op3(ADD, rd, rs1, rs2) }

// Div emits rd = rs1 / rs2.
func (b *Builder) Div(rd, rs1, rs2 uint8) *Builder { return b.Op3(DIV, rd, rs1, rs2) }

// Mod emits rd = rs1 % rs2.
func (b *Builder) Mod(rd, rs1, rs2 uint8) *Builder { return b.Op3(MOD, rd, rs1, rs2) }

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Instr{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Muli emits rd = rs1 * imm.
func (b *Builder) Muli(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Instr{Op: MULI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Instr{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Cmp emits a comparison rd = (rs1 op rs2) ? 1 : 0.
func (b *Builder) Cmp(op Op, rd, rs1, rs2 uint8) *Builder { return b.Op3(op, rd, rs1, rs2) }

// Load emits rd = Mem[rs1+off].
func (b *Builder) Load(rd, rs1 uint8, off int64) *Builder {
	return b.emit(Instr{Op: LOAD, Rd: rd, Rs1: rs1, Imm: off})
}

// Store emits Mem[rs1+off] = rs2.
func (b *Builder) Store(rs1 uint8, off int64, rs2 uint8) *Builder {
	return b.emit(Instr{Op: STORE, Rs1: rs1, Rs2: rs2, Imm: off})
}

// Alloc emits rd = address of a fresh rs1-word block.
func (b *Builder) Alloc(rd, rs1 uint8) *Builder {
	return b.emit(Instr{Op: ALLOC, Rd: rd, Rs1: rs1})
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) *Builder { return b.emitTo(Instr{Op: BR}, label) }

// CondBr emits a two-register conditional branch to label.
func (b *Builder) CondBr(op Op, rs1, rs2 uint8, label string) *Builder {
	return b.emitTo(Instr{Op: op, Rs1: rs1, Rs2: rs2}, label)
}

// Blt emits if rs1 < rs2 goto label.
func (b *Builder) Blt(rs1, rs2 uint8, label string) *Builder { return b.CondBr(BLT, rs1, rs2, label) }

// Beqz emits if rs1 == 0 goto label.
func (b *Builder) Beqz(rs1 uint8, label string) *Builder {
	return b.emitTo(Instr{Op: BEQZ, Rs1: rs1}, label)
}

// Call emits a call to label.
func (b *Builder) Call(label string) *Builder { return b.emitTo(Instr{Op: CALL}, label) }

// Ret emits a return.
func (b *Builder) Ret() *Builder { return b.emit(Instr{Op: RET}) }

// IndirectTo emits `addi rs, rs, <label>`, the label's instruction
// index resolved by Build, then op (BRR or CALLR) through rs: the
// transfer lands on label plus what rs held, e.g. 0 or a jump-table
// offset, and the analyses see no static edge to it.
func (b *Builder) IndirectTo(op Op, rs uint8, label string) *Builder {
	if op != BRR && op != CALLR {
		b.fail("IndirectTo with direct opcode %s", op)
	}
	b.pending[label] = append(b.pending[label], len(b.instrs))
	return b.emit(Instr{Op: ADDI, Rd: rs, Rs1: rs}).emit(Instr{Op: op, Rs1: rs})
}

// In emits rd = next word from input channel ch.
func (b *Builder) In(rd uint8, ch int64) *Builder {
	return b.emit(Instr{Op: IN, Rd: rd, Imm: ch})
}

// InAvail emits rd = words remaining on input channel ch.
func (b *Builder) InAvail(rd uint8, ch int64) *Builder {
	return b.emit(Instr{Op: INAVAIL, Rd: rd, Imm: ch})
}

// Out emits rs1 to output channel ch.
func (b *Builder) Out(rs1 uint8, ch int64) *Builder {
	return b.emit(Instr{Op: OUT, Rs1: rs1, Imm: ch})
}

// Spawn emits rd = tid of a new thread at label with argument rs1.
func (b *Builder) Spawn(rd, rs1 uint8, label string) *Builder {
	return b.emitTo(Instr{Op: SPAWN, Rd: rd, Rs1: rs1}, label)
}

// Join emits a join on thread id rs1.
func (b *Builder) Join(rs1 uint8) *Builder { return b.emit(Instr{Op: JOIN, Rs1: rs1}) }

// Lock emits an acquire of the lock at rs1+off.
func (b *Builder) Lock(rs1 uint8, off int64) *Builder {
	return b.emit(Instr{Op: LOCK, Rs1: rs1, Imm: off})
}

// Unlock emits a release of the lock at rs1+off.
func (b *Builder) Unlock(rs1 uint8, off int64) *Builder {
	return b.emit(Instr{Op: UNLOCK, Rs1: rs1, Imm: off})
}

// Barrier emits a barrier at rs1+off with rs2 participants.
func (b *Builder) Barrier(rs1 uint8, off int64, rs2 uint8) *Builder {
	return b.emit(Instr{Op: BARRIER, Rs1: rs1, Rs2: rs2, Imm: off})
}

// FlagSet emits Mem[rs1+off] = 1.
func (b *Builder) FlagSet(rs1 uint8, off int64) *Builder {
	return b.emit(Instr{Op: FLAGSET, Rs1: rs1, Imm: off})
}

// FlagClr emits Mem[rs1+off] = 0.
func (b *Builder) FlagClr(rs1 uint8, off int64) *Builder {
	return b.emit(Instr{Op: FLAGCLR, Rs1: rs1, Imm: off})
}

// FlagWait emits a blocking wait for Mem[rs1+off] != 0.
func (b *Builder) FlagWait(rs1 uint8, off int64) *Builder {
	return b.emit(Instr{Op: FLAGWT, Rs1: rs1, Imm: off})
}

// Cas emits rd = Mem[rs1]; if rd == rs2 { Mem[rs1] = newVal }.
func (b *Builder) Cas(rd, rs1, rs2 uint8, newVal int64) *Builder {
	return b.emit(Instr{Op: CAS, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: newVal})
}

// Yield emits a voluntary quantum end.
func (b *Builder) Yield() *Builder { return b.emit(Instr{Op: YIELD}) }

// Assert emits a check that rs1 != 0.
func (b *Builder) Assert(rs1 uint8) *Builder { return b.emit(Instr{Op: ASSERT, Rs1: rs1}) }

// Build resolves labels and returns the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.curFn != "" {
		return nil, fmt.Errorf("isa builder %q: unterminated function %q", b.name, b.curFn)
	}
	for label, sites := range b.pending {
		idx, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("isa builder %q: undefined label %q", b.name, label)
		}
		for _, site := range sites {
			if b.instrs[site].Op == ADDI { // IndirectTo's label-valued immediate
				b.instrs[site].Imm = int64(idx)
			} else {
				b.instrs[site].Target = idx
			}
		}
	}
	p := &Program{
		Name:   b.name,
		Instrs: b.instrs,
		Labels: b.labels,
		Data:   b.data,
		Funcs:  b.funcs,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for tests and workload
// construction where the program text is a compile-time constant.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
