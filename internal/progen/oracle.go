package progen

import (
	"fmt"
	"sort"

	"scaldift/internal/isa"
)

// This file is the brute-force oracle: a second, independent
// implementation of the VM's execution semantics, the DIFT transfer
// function (the engine's one rule set: a constant write untaints, and
// an address register's label never flows into the accessed value),
// exact lineage sets as plain Go maps, a naive dynamic data-
// dependence graph, and backward/forward data slices as transitive
// closures over it. It deliberately imports only internal/isa: no
// shadow memory, no sharding, no windows, no elision, no trace
// encoding — every structure is the obvious one, auditable by eye.
//
// Known scope limits, by design:
//   - Failed runs are not modeled precisely (the VM delivers one
//     extra fault event to tools; the Scenario harness only compares
//     non-failed runs, and the shrinker only inspects Outputs).
//   - A PC that falls off the end of the code is reported as a
//     failure here, where the raw VM would panic; only shrinker
//     candidates can reach that state.

// StopCode mirrors vm.StopReason.
type StopCode uint8

// Stop codes, in vm.StopReason order.
const (
	StopHalted StopCode = iota
	StopFailed
	StopDeadlock
	StopMaxSteps
)

func (c StopCode) String() string {
	switch c {
	case StopHalted:
		return "all threads halted"
	case StopFailed:
		return "failed"
	case StopDeadlock:
		return "deadlock"
	case StopMaxSteps:
		return "max steps exceeded"
	}
	return "unknown"
}

// OracleOut is one OUT observation with the labels every taint domain
// assigned to the emitted word.
type OracleOut struct {
	Ch      int
	Seq     uint64 // global dynamic instruction count of the OUT
	PC      int    // instruction index of the OUT
	Val     int64
	Bool    bool    // boolean taint of the emitted word
	PCLabel int32   // PC-taint label (statement id, 0 = untainted)
	Lineage []int64 // exact input-index lineage, ascending
}

// OracleBranch is one indirect-branch sink observation (BRR/CALLR).
type OracleBranch struct {
	Seq     uint64
	PC      int
	Bool    bool
	PCLabel int32
}

// OracleRun is the ground truth for one execution: machine-visible
// results, final taint state in all three domains, per-output lineage,
// and the full dynamic data-dependence graph with slice queries.
type OracleRun struct {
	Reason         StopCode
	Failed         bool
	FailPC         int
	FailTID        int
	FailMsg        string
	Steps          uint64
	InputsConsumed int
	Outputs        map[int][]int64

	NumThreads  int
	ThreadSteps []uint64

	Outs     []OracleOut
	Branches []OracleBranch

	// Final taint state. Mem maps hold only tainted words; Regs are
	// indexed [tid][reg], lineage entries sorted ascending (nil =
	// untainted).
	RegsBool    [][isa.NumRegs]bool
	RegsPC      [][isa.NumRegs]int32
	RegsLineage [][isa.NumRegs][]int64
	MemBool     map[int64]bool
	MemPC       map[int64]int32
	MemLineage  map[int64][]int64

	nodePC [][]int32 // [tid][n-1] = instruction index of instance n
	deps   [][][]odep
}

// odep is one data dependence: the def instance a use instance read.
// The use side is implied by its position in OracleRun.deps.
type odep struct {
	defTID int
	defN   uint64
	defPC  int32
}

// otag identifies the instruction instance that last defined a
// register or memory word (n == 0 means "never defined").
type otag struct {
	tid int
	n   uint64
	pc  int32
}

// lset is an exact lineage set of global input indices; nil is empty.
// Sets are never mutated after creation, so aliasing is safe.
type lset map[int64]struct{}

func linJoin(a, b lset) lset {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	u := make(lset, len(a)+len(b))
	for k := range a {
		u[k] = struct{}{}
	}
	for k := range b {
		u[k] = struct{}{}
	}
	return u
}

func (s lset) sorted() []int64 {
	if len(s) == 0 {
		return nil
	}
	out := make([]int64, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pcJoin mirrors dift.PC.Join: first non-zero operand wins.
func pcJoin(a, b int32) int32 {
	if a != 0 {
		return a
	}
	return b
}

type tstate uint8

const (
	trunnable tstate = iota
	tblocked
	thalted
)

type wkind uint8

const (
	wnone wkind = iota
	wlock
	wbarrier
	wflag
	wjoin
	winput
)

type othread struct {
	id    int
	pc    int
	regs  [isa.NumRegs]int64
	calls []int
	state tstate

	waitKind wkind
	waitAddr int64
	waitGen  int64
	waitTID  int
	waitCh   int

	steps uint64

	// Per-domain register shadows (the VM keeps these in the engines).
	boolRegs [isa.NumRegs]bool
	pcRegs   [isa.NumRegs]int32
	linRegs  [isa.NumRegs]lset
	// DDG register tags: last defining instance of each register.
	tags [isa.NumRegs]otag
}

type oracle struct {
	prog *isa.Program
	par  Params

	mem     []int64
	threads []*othread
	cur     int
	budget  int

	heapNext  int64
	heapLimit int64

	inputs   map[int][]int64
	inputPos map[int]int
	inputSeq int
	outputs  map[int][]int64

	steps    uint64
	rngState uint64

	failed  bool
	failPC  int
	failTID int
	failMsg string
	stopped bool
	reason  StopCode

	boolMem map[int64]bool
	pcMem   map[int64]int32
	linMem  map[int64]lset

	memTags map[int64]otag
	nodePC  [][]int32
	deps    [][][]odep

	outs     []OracleOut
	branches []OracleBranch
}

// okind classifies a completed instruction for taint propagation,
// mirroring the event-kind cases the dift engine distinguishes.
type okind uint8

const (
	oNone      okind = iota // no label effect (branches, sync, halt…)
	oIn                     // IN: dst ← fresh source label
	oCompute                // EvCompute / EvCas generic path
	oLoad                   // dst ← memory label
	oStore                  // memory ← joined register labels
	oOut                    // sink: output
	oSpawn                  // child r1 ← arg label raw, rd cleared
	oFlagWrite              // FLAGSET/FLAGCLR: memory label cleared
	oIndirect               // BRR/CALLR: sink gets rs1 label raw
)

// obs is the dataflow observation of one completed instruction.
type obs struct {
	kind     okind
	dstReg   int // -1 none (register index, 0 = discard)
	srcs     [2]uint8
	nsrc     int
	srcMem   int64 // -1 none
	dstMem   int64 // -1 none
	inputIdx int
	ch       int
	val      int64
	child    int // spawned thread id, -1 none
}

// RunOracle executes prog to completion under the given inputs and
// parameters, replicating the VM's scheduler decision-for-decision,
// and returns the ground truth for every analysis.
func RunOracle(p *isa.Program, inputs map[int][]int64, par Params) *OracleRun {
	par.fill()
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("progen: oracle given invalid program: %v", err))
	}
	if need := len(p.Data) + par.MaxThreads*par.StackWords + 1024; par.MemWords < need {
		panic(fmt.Sprintf("progen: MemWords %d too small (need >= %d)", par.MemWords, need))
	}
	o := &oracle{
		prog:     p,
		par:      par,
		mem:      make([]int64, par.MemWords),
		cur:      -1,
		inputs:   make(map[int][]int64),
		inputPos: make(map[int]int),
		outputs:  make(map[int][]int64),
		rngState: par.Seed + 0x9e3779b97f4a7c15,
		boolMem:  make(map[int64]bool),
		pcMem:    make(map[int64]int32),
		linMem:   make(map[int64]lset),
		memTags:  make(map[int64]otag),
	}
	for ch, words := range inputs {
		o.inputs[ch] = append([]int64(nil), words...)
	}
	copy(o.mem, p.Data)
	o.heapNext = int64(len(p.Data))
	o.heapLimit = int64(par.MemWords - par.MaxThreads*par.StackWords)
	o.newThread(0, nil)

	for !o.stopped {
		if o.steps >= o.par.MaxSteps {
			o.reason = StopMaxSteps
			break
		}
		t := o.scheduled()
		if t == nil {
			if o.liveThreads() == 0 {
				o.reason = StopHalted
			} else {
				o.reason = StopDeadlock
			}
			break
		}
		o.exec(t)
	}
	return o.finish()
}

func (o *oracle) newThread(pc int, arg *int64) *othread {
	id := len(o.threads)
	if id >= o.par.MaxThreads {
		return nil
	}
	t := &othread{id: id, pc: pc}
	top := int64(o.par.MemWords - id*o.par.StackWords)
	t.regs[31] = top - 1
	if arg != nil {
		t.regs[1] = *arg
	}
	o.threads = append(o.threads, t)
	o.nodePC = append(o.nodePC, nil)
	o.deps = append(o.deps, nil)
	return t
}

func (o *oracle) liveThreads() int {
	n := 0
	for _, t := range o.threads {
		if t.state != thalted {
			n++
		}
	}
	return n
}

// rngNext and rngIntn replicate the VM's splitmix64 scheduler PRNG
// bit-for-bit, including intn's "n <= 1 consumes nothing" shortcut.
func (o *oracle) rngNext() uint64 {
	o.rngState += 0x9e3779b97f4a7c15
	z := o.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (o *oracle) rngIntn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(o.rngNext() % uint64(n))
}

func (o *oracle) tryUnblock(t *othread) bool {
	if t.state != tblocked {
		return t.state == trunnable
	}
	switch t.waitKind {
	case wlock:
		if o.mem[t.waitAddr] == 0 {
			t.state = trunnable
		}
	case wflag:
		if o.mem[t.waitAddr] != 0 {
			t.state = trunnable
		}
	case wbarrier:
		if o.mem[t.waitAddr+1] != t.waitGen {
			t.state = trunnable
			t.pc++ // the arrival was counted at block time
		}
	case wjoin:
		if t.waitTID < 0 || t.waitTID >= len(o.threads) || o.threads[t.waitTID].state == thalted {
			t.state = trunnable
		}
	case winput:
		if o.inputPos[t.waitCh] < len(o.inputs[t.waitCh]) {
			t.state = trunnable
		}
	}
	if t.state == trunnable {
		t.waitKind = wnone
	}
	return t.state == trunnable
}

func (o *oracle) scheduled() *othread {
	if o.cur >= 0 && o.budget > 0 {
		t := o.threads[o.cur]
		if t.state == trunnable {
			return t
		}
	}
	var runnable []int
	for _, t := range o.threads {
		if o.tryUnblock(t) {
			runnable = append(runnable, t.id)
		}
	}
	if len(runnable) == 0 {
		o.cur = -1
		return nil
	}
	idx := 0
	if len(runnable) > 1 {
		idx = o.rngIntn(len(runnable))
	}
	quantum := o.par.Quantum
	if o.par.RandomPreempt {
		quantum = 1 + o.rngIntn(o.par.Quantum)
	}
	o.cur = runnable[idx]
	o.budget = quantum
	return o.threads[o.cur]
}

func (o *oracle) block(t *othread, kind wkind) {
	t.state = tblocked
	t.waitKind = kind
	o.budget = 0
}

func (o *oracle) fault(t *othread, pc int, format string, args ...any) {
	o.failed = true
	o.failPC = pc
	o.failTID = t.id
	o.failMsg = fmt.Sprintf(format, args...)
	t.state = thalted
	o.stopped = true
	o.reason = StopFailed
}

func (o *oracle) validAddr(addr int64) bool {
	return addr >= 0 && addr < int64(len(o.mem))
}

func (o *oracle) setReg(t *othread, r uint8, v int64) {
	if r != 0 {
		t.regs[r] = v
	}
}

// exec interprets one instruction on t, mirroring vm.Machine.exec.
func (o *oracle) exec(t *othread) {
	if t.pc < 0 || t.pc >= len(o.prog.Instrs) {
		o.fault(t, t.pc, "pc %d out of range", t.pc)
		return
	}
	ins := &o.prog.Instrs[t.pc]
	pc := t.pc
	next := pc + 1
	blocked := false
	b := obs{dstReg: -1, srcMem: -1, dstMem: -1, child: -1}
	src1 := func() { b.srcs[b.nsrc] = ins.Rs1; b.nsrc++ }
	src2 := func() { b.srcs[b.nsrc] = ins.Rs2; b.nsrc++ }

	switch ins.Op {
	case isa.NOP:
	case isa.YIELD:
		o.budget = 0
	case isa.HALT:
		t.state = thalted
	case isa.FAIL:
		o.fault(t, pc, "explicit FAIL")
		return
	case isa.ASSERT:
		src1()
		if t.regs[ins.Rs1] == 0 {
			o.fault(t, pc, "assertion failed (r%d == 0)", ins.Rs1)
			return
		}
	case isa.MOVI:
		b.kind = oCompute
		b.dstReg = int(ins.Rd)
		o.setReg(t, ins.Rd, ins.Imm)
	case isa.MOV:
		b.kind = oCompute
		b.dstReg = int(ins.Rd)
		src1()
		o.setReg(t, ins.Rd, t.regs[ins.Rs1])
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR,
		isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		a, c := t.regs[ins.Rs1], t.regs[ins.Rs2]
		if (ins.Op == isa.DIV || ins.Op == isa.MOD) && c == 0 {
			o.fault(t, pc, "division by zero")
			return
		}
		b.kind = oCompute
		b.dstReg = int(ins.Rd)
		src1()
		src2()
		o.setReg(t, ins.Rd, oalu(ins.Op, a, c))
	case isa.ADDI, isa.MULI, isa.ANDI:
		a := t.regs[ins.Rs1]
		var v int64
		switch ins.Op {
		case isa.ADDI:
			v = a + ins.Imm
		case isa.MULI:
			v = a * ins.Imm
		case isa.ANDI:
			v = a & ins.Imm
		}
		b.kind = oCompute
		b.dstReg = int(ins.Rd)
		src1()
		o.setReg(t, ins.Rd, v)
	case isa.LOAD:
		addr := t.regs[ins.Rs1] + ins.Imm
		if !o.validAddr(addr) {
			o.fault(t, pc, "load from invalid address %d", addr)
			return
		}
		b.kind = oLoad
		b.dstReg = int(ins.Rd)
		b.srcMem = addr
		o.setReg(t, ins.Rd, o.mem[addr])
	case isa.STORE:
		addr := t.regs[ins.Rs1] + ins.Imm
		if !o.validAddr(addr) {
			o.fault(t, pc, "store to invalid address %d", addr)
			return
		}
		b.kind = oStore
		b.dstMem = addr
		src2()
		o.mem[addr] = t.regs[ins.Rs2]
	case isa.ALLOC:
		n := t.regs[ins.Rs1]
		if n < 0 || o.heapNext+n > o.heapLimit {
			o.fault(t, pc, "alloc of %d words failed", n)
			return
		}
		addr := o.heapNext
		o.heapNext += n
		b.kind = oCompute
		b.dstReg = int(ins.Rd)
		src1()
		o.setReg(t, ins.Rd, addr)
	case isa.BR:
		next = ins.Target
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		a, c := t.regs[ins.Rs1], t.regs[ins.Rs2]
		src1()
		src2()
		taken := false
		switch ins.Op {
		case isa.BEQ:
			taken = a == c
		case isa.BNE:
			taken = a != c
		case isa.BLT:
			taken = a < c
		case isa.BGE:
			taken = a >= c
		}
		if taken {
			next = ins.Target
		}
	case isa.BEQZ, isa.BNEZ:
		a := t.regs[ins.Rs1]
		src1()
		if (ins.Op == isa.BEQZ && a == 0) || (ins.Op == isa.BNEZ && a != 0) {
			next = ins.Target
		}
	case isa.CALL:
		t.calls = append(t.calls, pc+1)
		next = ins.Target
	case isa.BRR, isa.CALLR:
		target := t.regs[ins.Rs1]
		b.kind = oIndirect
		src1()
		if target < 0 || target >= int64(len(o.prog.Instrs)) {
			o.fault(t, pc, "indirect jump to invalid target %d", target)
			return
		}
		if ins.Op == isa.CALLR {
			t.calls = append(t.calls, pc+1)
		}
		next = int(target)
	case isa.RET:
		if len(t.calls) == 0 {
			o.fault(t, pc, "return with empty call stack")
			return
		}
		next = t.calls[len(t.calls)-1]
		t.calls = t.calls[:len(t.calls)-1]
	case isa.IN:
		ch := int(ins.Imm)
		pos := o.inputPos[ch]
		if pos >= len(o.inputs[ch]) {
			t.waitCh = ch
			o.block(t, winput)
			blocked = true
			break
		}
		v := o.inputs[ch][pos]
		o.inputPos[ch] = pos + 1
		b.kind = oIn
		b.dstReg = int(ins.Rd)
		b.inputIdx = o.inputSeq
		o.inputSeq++
		o.setReg(t, ins.Rd, v)
	case isa.INAVAIL:
		ch := int(ins.Imm)
		b.kind = oCompute // avail count is not a taint source
		b.dstReg = int(ins.Rd)
		o.setReg(t, ins.Rd, int64(len(o.inputs[ch])-o.inputPos[ch]))
	case isa.OUT:
		ch := int(ins.Imm)
		v := t.regs[ins.Rs1]
		o.outputs[ch] = append(o.outputs[ch], v)
		b.kind = oOut
		src1()
		b.ch = ch
		b.val = v
	case isa.SPAWN:
		arg := t.regs[ins.Rs1]
		nt := o.newThread(ins.Target, &arg)
		if nt == nil {
			o.fault(t, pc, "thread limit (%d) exceeded", o.par.MaxThreads)
			return
		}
		b.kind = oSpawn
		b.dstReg = int(ins.Rd)
		src1()
		b.child = nt.id
		o.setReg(t, ins.Rd, int64(nt.id))
	case isa.JOIN:
		target := int(t.regs[ins.Rs1])
		src1()
		if target >= 0 && target < len(o.threads) && o.threads[target].state != thalted {
			t.waitTID = target
			o.block(t, wjoin)
			blocked = true
		}
	case isa.LOCK:
		addr := t.regs[ins.Rs1] + ins.Imm
		if !o.validAddr(addr) {
			o.fault(t, pc, "lock at invalid address %d", addr)
			return
		}
		if o.mem[addr] == 0 {
			o.mem[addr] = int64(t.id) + 1
		} else {
			t.waitAddr = addr
			o.block(t, wlock)
			blocked = true
		}
	case isa.UNLOCK:
		addr := t.regs[ins.Rs1] + ins.Imm
		if !o.validAddr(addr) {
			o.fault(t, pc, "unlock at invalid address %d", addr)
			return
		}
		if o.mem[addr] != int64(t.id)+1 {
			o.fault(t, pc, "unlock of lock %d not held by thread %d", addr, t.id)
			return
		}
		o.mem[addr] = 0
	case isa.BARRIER:
		addr := t.regs[ins.Rs1] + ins.Imm
		count := t.regs[ins.Rs2]
		if !o.validAddr(addr) || !o.validAddr(addr+1) {
			o.fault(t, pc, "barrier at invalid address %d", addr)
			return
		}
		o.mem[addr]++
		if o.mem[addr] >= count {
			o.mem[addr] = 0
			o.mem[addr+1]++
		} else {
			t.waitAddr = addr
			t.waitGen = o.mem[addr+1]
			o.block(t, wbarrier)
			blocked = true
		}
	case isa.FLAGSET, isa.FLAGCLR:
		addr := t.regs[ins.Rs1] + ins.Imm
		if !o.validAddr(addr) {
			o.fault(t, pc, "flag at invalid address %d", addr)
			return
		}
		var v int64
		if ins.Op == isa.FLAGSET {
			v = 1
		}
		b.kind = oFlagWrite
		b.dstMem = addr
		o.mem[addr] = v
	case isa.FLAGWT:
		addr := t.regs[ins.Rs1] + ins.Imm
		if !o.validAddr(addr) {
			o.fault(t, pc, "flag at invalid address %d", addr)
			return
		}
		if o.mem[addr] == 0 {
			t.waitAddr = addr
			o.block(t, wflag)
			blocked = true
		}
	case isa.CAS:
		addr := t.regs[ins.Rs1]
		if !o.validAddr(addr) {
			o.fault(t, pc, "cas at invalid address %d", addr)
			return
		}
		old := o.mem[addr]
		b.kind = oCompute
		b.dstReg = int(ins.Rd)
		src2()
		b.srcMem = addr
		if old == t.regs[ins.Rs2] {
			o.mem[addr] = ins.Imm
			b.dstMem = addr
		}
		o.setReg(t, ins.Rd, old)
	default:
		o.fault(t, pc, "unimplemented opcode %v", ins.Op)
		return
	}

	if blocked {
		return // blocked attempts produce no analysis observation
	}
	t.pc = next
	t.steps++
	o.steps++
	o.budget--
	o.observe(t, ins, pc, &b)
	if t.state == thalted {
		o.budget = 0
	}
}

func oalu(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.DIV:
		return a / b
	case isa.MOD:
		return a % b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << uint64(b&63)
	case isa.SHR:
		return int64(uint64(a) >> uint64(b&63))
	case isa.CMPEQ:
		return b2i(a == b)
	case isa.CMPNE:
		return b2i(a != b)
	case isa.CMPLT:
		return b2i(a < b)
	case isa.CMPLE:
		return b2i(a <= b)
	case isa.CMPGT:
		return b2i(a > b)
	case isa.CMPGE:
		return b2i(a >= b)
	}
	return 0
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// observe applies the analysis effects of one completed instruction:
// taint in all three domains (mirroring dift.Engine), the DDG node and
// its data dependences (mirroring ddg.Extractor.OnEvent),
// and sink records for OUT and indirect branches.
func (o *oracle) observe(t *othread, ins *isa.Instr, pc int, b *obs) {
	o.taint(t, ins, pc, b)
	o.ddg(t, pc, b)
}

func (o *oracle) taint(t *othread, ins *isa.Instr, pc int, b *obs) {
	switch b.kind {
	case oIn:
		if b.dstReg > 0 {
			t.boolRegs[b.dstReg] = true
			t.pcRegs[b.dstReg] = int32(ins.Line)
			t.linRegs[b.dstReg] = lset{int64(b.inputIdx): {}}
		}
	case oCompute:
		if b.dstReg < 0 {
			return
		}
		var bl bool
		var pl int32
		var ll lset
		for i := 0; i < b.nsrc; i++ {
			r := b.srcs[i]
			bl = bl || t.boolRegs[r]
			pl = pcJoin(pl, t.pcRegs[r])
			ll = linJoin(ll, t.linRegs[r])
		}
		if b.srcMem >= 0 { // CAS reads memory too
			bl = bl || o.boolMem[b.srcMem]
			pl = pcJoin(pl, o.pcMem[b.srcMem])
			ll = linJoin(ll, o.linMem[b.srcMem])
		}
		if b.dstReg > 0 {
			if b.nsrc == 0 && b.srcMem < 0 {
				// A pure-constant destination is clean.
				t.boolRegs[b.dstReg] = false
				t.pcRegs[b.dstReg] = 0
				t.linRegs[b.dstReg] = nil
			} else {
				t.boolRegs[b.dstReg] = bl
				t.pcRegs[b.dstReg] = pcTransfer(ins, pl)
				t.linRegs[b.dstReg] = ll
			}
		}
		if b.dstMem >= 0 {
			// CAS success swaps a constant in, which clears the cell.
			o.clearMemTaint(b.dstMem)
		}
	case oLoad:
		if b.dstReg > 0 {
			t.boolRegs[b.dstReg] = o.boolMem[b.srcMem]
			t.pcRegs[b.dstReg] = pcTransfer(ins, o.pcMem[b.srcMem])
			t.linRegs[b.dstReg] = o.linMem[b.srcMem]
		}
	case oStore:
		r := b.srcs[0]
		o.setMemBool(b.dstMem, t.boolRegs[r])
		o.setMemPC(b.dstMem, pcTransfer(ins, t.pcRegs[r]))
		o.setMemLin(b.dstMem, t.linRegs[r])
	case oOut:
		r := b.srcs[0]
		o.outs = append(o.outs, OracleOut{
			Ch: b.ch, Seq: o.steps, PC: pc, Val: b.val,
			Bool: t.boolRegs[r], PCLabel: t.pcRegs[r], Lineage: t.linRegs[r].sorted(),
		})
	case oIndirect:
		r := b.srcs[0]
		o.branches = append(o.branches, OracleBranch{
			Seq: o.steps, PC: pc, Bool: t.boolRegs[r], PCLabel: t.pcRegs[r],
		})
	case oSpawn:
		argB := t.boolRegs[b.srcs[0]]
		argP := t.pcRegs[b.srcs[0]]
		argL := t.linRegs[b.srcs[0]]
		if b.dstReg > 0 {
			t.boolRegs[b.dstReg] = false // tid is not input-derived
			t.pcRegs[b.dstReg] = 0
			t.linRegs[b.dstReg] = nil
		}
		child := o.threads[b.child]
		child.boolRegs[1] = argB
		child.pcRegs[1] = argP
		child.linRegs[1] = argL
	case oFlagWrite:
		o.clearMemTaint(b.dstMem)
	}
}

// pcTransfer mirrors dift.PC.Transfer: any tainted value is rewritten
// to the current statement id.
func pcTransfer(ins *isa.Instr, src int32) int32 {
	if src == 0 {
		return 0
	}
	return int32(ins.Line)
}

func (o *oracle) clearMemTaint(addr int64) {
	delete(o.boolMem, addr)
	delete(o.pcMem, addr)
	delete(o.linMem, addr)
}

func (o *oracle) setMemBool(addr int64, v bool) {
	if v {
		o.boolMem[addr] = true
	} else {
		delete(o.boolMem, addr)
	}
}

func (o *oracle) setMemPC(addr int64, v int32) {
	if v != 0 {
		o.pcMem[addr] = v
	} else {
		delete(o.pcMem, addr)
	}
}

func (o *oracle) setMemLin(addr int64, s lset) {
	if len(s) > 0 {
		o.linMem[addr] = s
	} else {
		delete(o.linMem, addr)
	}
}

// ddg records the node and data dependences of instance (t.id,
// t.steps), mirroring ddg.Extractor.OnEvent: register sources with
// two-slot dedup, then the destination register tag, then the memory
// source, then the destination memory tag.
func (o *oracle) ddg(t *othread, pc int, b *obs) {
	tid := t.id
	n := t.steps // post-increment: this instance's 1-based number
	pcIdx := int32(pc)
	o.nodePC[tid] = append(o.nodePC[tid], pcIdx)
	var ds []odep
	seen := [2]int{-1, -1}
	for i := 0; i < b.nsrc; i++ {
		r := int(b.srcs[i])
		if r == seen[0] || r == seen[1] {
			continue
		}
		seen[i] = r
		if tg := t.tags[r]; tg.n != 0 {
			ds = append(ds, odep{defTID: tg.tid, defN: tg.n, defPC: tg.pc})
		}
	}
	if b.dstReg > 0 {
		t.tags[b.dstReg] = otag{tid: tid, n: n, pc: pcIdx}
	}
	if b.srcMem >= 0 {
		if tg, ok := o.memTags[b.srcMem]; ok && tg.n != 0 {
			ds = append(ds, odep{defTID: tg.tid, defN: tg.n, defPC: tg.pc})
		}
	}
	if b.dstMem >= 0 {
		o.memTags[b.dstMem] = otag{tid: tid, n: n, pc: pcIdx}
	}
	if b.child >= 0 {
		o.threads[b.child].tags[1] = otag{tid: tid, n: n, pc: pcIdx}
	}
	o.deps[tid] = append(o.deps[tid], ds)
}

func (o *oracle) finish() *OracleRun {
	r := &OracleRun{
		Reason:         o.reason,
		Failed:         o.failed,
		FailPC:         o.failPC,
		FailTID:        o.failTID,
		FailMsg:        o.failMsg,
		Steps:          o.steps,
		InputsConsumed: o.inputSeq,
		Outputs:        o.outputs,
		NumThreads:     len(o.threads),
		Outs:           o.outs,
		Branches:       o.branches,
		MemBool:        o.boolMem,
		MemPC:          o.pcMem,
		MemLineage:     make(map[int64][]int64, len(o.linMem)),
		nodePC:         o.nodePC,
		deps:           o.deps,
	}
	for addr, s := range o.linMem {
		r.MemLineage[addr] = s.sorted()
	}
	for _, t := range o.threads {
		r.ThreadSteps = append(r.ThreadSteps, t.steps)
		r.RegsBool = append(r.RegsBool, t.boolRegs)
		r.RegsPC = append(r.RegsPC, t.pcRegs)
		var lin [isa.NumRegs][]int64
		for i := range t.linRegs {
			lin[i] = t.linRegs[i].sorted()
		}
		r.RegsLineage = append(r.RegsLineage, lin)
	}
	return r
}

// NodePC returns the instruction index of instance (tid, n), with ok
// false when no such instance executed.
func (r *OracleRun) NodePC(tid int, n uint64) (int32, bool) {
	if tid < 0 || tid >= len(r.nodePC) || n < 1 || n > uint64(len(r.nodePC[tid])) {
		return 0, false
	}
	return r.nodePC[tid][n-1], true
}

// DepCount returns how many data dependences instance (tid, n)
// recorded; an engine trace without elision stores the instance iff
// this is non-zero.
func (r *OracleRun) DepCount(tid int, n uint64) int {
	if tid < 0 || tid >= len(r.deps) || n < 1 || n > uint64(len(r.deps[tid])) {
		return 0
	}
	return len(r.deps[tid][n-1])
}

// RecordedWindow returns the [lo,hi] instance range a no-elision
// data-dependence trace of thread tid covers: the first and last
// instances with at least one data dependence. (0,0) means none.
func (r *OracleRun) RecordedWindow(tid int) (lo, hi uint64) {
	if tid < 0 || tid >= len(r.deps) {
		return 0, 0
	}
	for i, ds := range r.deps[tid] {
		if len(ds) == 0 {
			continue
		}
		n := uint64(i + 1)
		if lo == 0 {
			lo = n
		}
		hi = n
	}
	return lo, hi
}

// RecordedThreads returns the sorted tids that recorded at least one
// data dependence — the thread set a no-elision trace store reports.
func (r *OracleRun) RecordedThreads() []int {
	var tids []int
	for tid := range r.deps {
		if lo, _ := r.RecordedWindow(tid); lo != 0 {
			tids = append(tids, tid)
		}
	}
	return tids
}

type nodeKey struct {
	tid int
	n   uint64
}

// BackwardPCs computes the backward data slice from instance (tid, n)
// as the set of instruction indices on any data-dependence path into
// it, including its own. This is the ground truth for
// slicing.Backward with FollowControl off.
func (r *OracleRun) BackwardPCs(tid int, n uint64) map[int32]bool {
	pcs := make(map[int32]bool)
	pc, ok := r.NodePC(tid, n)
	if !ok {
		return pcs
	}
	pcs[pc] = true
	start := nodeKey{tid, n}
	seenN := map[nodeKey]bool{start: true}
	work := []nodeKey{start}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range r.deps[k.tid][k.n-1] {
			pcs[d.defPC] = true
			dk := nodeKey{d.defTID, d.defN}
			if !seenN[dk] {
				seenN[dk] = true
				work = append(work, dk)
			}
		}
	}
	return pcs
}

// BackwardPCsBounded is BackwardPCs under the slicer's
// window-truncation rule: a dependence whose def instance lies below
// its thread's lower bound (lows[tid], 0 = unbounded) contributes its
// static PC but is not expanded further, exactly as slicing.Backward
// treats instances below a source's retained window. This is the
// ground truth for slicing over elided traces, whose stored window
// starts at the thread's first stored record rather than its first
// executed instruction.
//
// highs bounds the walk from above the same way (nil = unbounded): a
// def past its thread's high mark — or in a thread highs does not
// list at all — contributes its PC but is a dead end. That is how a
// slice over a live store behaves at the frontier: the dependence
// record below the frontier names the def's PC, but the def's own
// chunk has not landed yet, so the traversal cannot expand it. A
// frontier snapshot passed as highs therefore gives the exact
// expected PC set for a mid-recording slice.
func (r *OracleRun) BackwardPCsBounded(tid int, n uint64, lows, highs map[int]uint64) map[int32]bool {
	pcs := make(map[int32]bool)
	pc, ok := r.NodePC(tid, n)
	if !ok {
		return pcs
	}
	pcs[pc] = true
	start := nodeKey{tid, n}
	seenN := map[nodeKey]bool{start: true}
	work := []nodeKey{start}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range r.deps[k.tid][k.n-1] {
			pcs[d.defPC] = true
			dk := nodeKey{d.defTID, d.defN}
			if seenN[dk] {
				continue
			}
			seenN[dk] = true
			if lo := lows[d.defTID]; lo > 0 && d.defN < lo {
				continue // truncated: PC recorded, node not expanded
			}
			if highs != nil {
				if hi, ok := highs[d.defTID]; !ok || d.defN > hi {
					continue // past the frontier: PC recorded, node not landed
				}
			}
			work = append(work, dk)
		}
	}
	return pcs
}

// ForwardPCs computes the forward data slice from instance (tid, n):
// the instruction indices of every instance reachable by following
// data dependences def→use, plus the start's own index when the start
// instance recorded at least one dependence (matching the engine,
// whose node lookup only resolves stored instances).
func (r *OracleRun) ForwardPCs(tid int, n uint64) map[int32]bool {
	pcs := make(map[int32]bool)
	if _, ok := r.NodePC(tid, n); !ok {
		return pcs
	}
	if r.DepCount(tid, n) > 0 {
		pc, _ := r.NodePC(tid, n)
		pcs[pc] = true
	}
	// Reverse adjacency: def → uses.
	rev := make(map[nodeKey][]nodeKey)
	for utid := range r.deps {
		for i, ds := range r.deps[utid] {
			use := nodeKey{utid, uint64(i + 1)}
			for _, d := range ds {
				def := nodeKey{d.defTID, d.defN}
				rev[def] = append(rev[def], use)
			}
		}
	}
	start := nodeKey{tid, n}
	seenN := map[nodeKey]bool{start: true}
	work := []nodeKey{start}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, use := range rev[k] {
			upc, _ := r.NodePC(use.tid, use.n)
			pcs[upc] = true
			if !seenN[use] {
				seenN[use] = true
				work = append(work, use)
			}
		}
	}
	return pcs
}
