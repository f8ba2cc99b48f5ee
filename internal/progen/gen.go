package progen

import (
	"fmt"

	"scaldift/internal/isa"
)

// Generator register conventions. Value statements draw from r2..r7;
// the remaining registers have fixed roles so generated code is
// well-formed by construction (loop counters are never clobbered by
// loop bodies, addresses never escape their region, divisors are
// never zero).
const (
	rIdx    = 1  // thread argument: worker index (main = 0)
	rValLo  = 2  // first value register
	rValHi  = 7  // last value register
	rScr    = 8  // scratch: guarded divisors, dynamic addresses
	rScr2   = 9  // scratch: alloc results
	rShared = 10 // shared region base
	rPriv   = 11 // this thread's private region base
	rCas    = 13 // CAS cell address
	rCount  = 15 // barrier participant count
	rLoop0  = 20 // loop counter, depth 0
	rBound0 = 21 // loop bound, depth 0
	rLoop1  = 22 // loop counter, depth 1
	rBound1 = 23 // loop bound, depth 1
	rTid0   = 24 // spawned thread ids: r24, r25, …
)

// Data-segment layout (word addresses).
const (
	lockAddr    = 0 // global lock word
	barrierAddr = 1 // barrier object: [1]=count, [2]=generation
	flagAddr    = 3 // phase-0 handshake flag
	casAddr     = 4 // CAS cell
	padAddr     = 5 // 5..7: scratch flag words (never waited on)
	sharedBase  = 8 // shared region starts here
)

// GenConfig bounds the generator's choices; every knob is a maximum
// the per-seed sampling draws from, so one config covers a spread of
// program shapes.
type GenConfig struct {
	// MaxWorkers bounds spawned worker threads (main excluded).
	MaxWorkers int
	// MaxBodyOps bounds statements per phase body.
	MaxBodyOps int
	// MaxPhases bounds barrier-separated phases (workers > 0 only).
	MaxPhases int
	// MaxLoopDepth bounds loop nesting (0 disables loops).
	MaxLoopDepth int
	// MaxTrip bounds loop trip counts.
	MaxTrip int
	// SharedWords / PrivWords size the shared and per-thread address
	// footprints; both must be powers of two (masked indexing).
	SharedWords int
	PrivWords   int
	// Feature gates.
	Locks bool // lock/unlock critical sections
	Flags bool // flag writes and the phase-0 flag handshake
	CAS   bool // compare-and-swap on a shared cell
	Calls bool // straight-line helper functions via CALL or CALLR, and RET
}

// DefaultGenConfig is the corpus configuration: small concurrent
// programs exercising every feature.
//
//scaldift:ignore deadexport test-support: the corpus configuration every progen test and new scenario starts from
func DefaultGenConfig() GenConfig {
	return GenConfig{
		MaxWorkers:   2,
		MaxBodyOps:   10,
		MaxPhases:    2,
		MaxLoopDepth: 2,
		MaxTrip:      3,
		SharedWords:  16,
		PrivWords:    8,
		Locks:        true,
		Flags:        true,
		CAS:          true,
		Calls:        true,
	}
}

// stmtKind enumerates generatable statements.
type stmtKind int

const (
	sAlu stmtKind = iota
	sAluI
	sMovi
	sMov
	sDiv
	sIn
	sOut
	sInavail
	sLoadS
	sStoreS
	sLoadD
	sStoreD
	sCas
	sCrit
	sIf
	sLoop
	sCall
	sSwitch
	sYield
	sAssert
	sAlloc
	sFlag
)

// sctx is the structural context a statement is generated in.
type sctx struct {
	mul         int64 // worst-case execution multiplier of this point
	loopDepth   int
	branchDepth int
	inCrit      bool
	allocs      *int // alloc sites emitted in this role (≤ 2)
}

type gen struct {
	r   *rng
	cfg GenConfig
	b   *isa.Builder

	workers  int
	phases   int
	privBase int64

	labels int
	worst  int64 // worst-case dynamic instruction count
	ins    int64 // worst-case IN executions

	helpers    []helper
	usedHelper bool
}

// helper is a straight-line callee generated up front so call sites
// know its cost; its body is emitted after all thread code.
type helper struct {
	name string
	emit func(b *isa.Builder)
	len  int
}

// Generate produces a validated random program plus the inputs and
// machine parameters to run it under. The same (seed, cfg) always
// yields a byte-identical Generated: the only entropy source is the
// internal splitmix64 stream.
func Generate(seed uint64, cfg GenConfig) *Generated {
	g := &gen{r: newRng(seed), cfg: cfg}
	g.b = isa.NewBuilder(fmt.Sprintf("progen-%d", seed))

	g.workers = g.r.intn(cfg.MaxWorkers + 1)
	g.phases = 1
	if g.workers > 0 && cfg.MaxPhases > 1 {
		g.phases = 1 + g.r.intn(cfg.MaxPhases)
	}

	// Data segment: 8 sync words, then an initialized shared region,
	// then zeroed per-thread private regions.
	g.b.Reserve(8)
	shared := make([]int64, cfg.SharedWords)
	for i := range shared {
		shared[i] = int64(g.r.intn(64))
	}
	g.b.Data(shared...)
	g.privBase = g.b.Reserve(cfg.PrivWords * (g.workers + 1))

	if cfg.Calls {
		g.genHelpers()
	}
	handshake := cfg.Flags && g.workers > 0 && g.r.coin(1, 2)

	// Main thread.
	g.emitPrologue(1)
	for i := 1; i <= g.workers; i++ {
		g.b.Movi(rScr, int64(i))
		g.b.Spawn(uint8(rTid0+i-1), rScr, fmt.Sprintf("w%d", i))
		g.step(2, 1)
	}
	mainAllocs := 0
	for p := 0; p < g.phases; p++ {
		if p == 0 && handshake {
			g.b.FlagSet(0, flagAddr)
			g.step(1, 1)
		}
		g.body(sctx{mul: 1, allocs: &mainAllocs})
		if p < g.phases-1 {
			g.b.Barrier(0, barrierAddr, rCount)
			g.step(1, 1)
		}
	}
	for i := 1; i <= g.workers; i++ {
		g.b.Join(uint8(rTid0 + i - 1))
		g.step(1, 1)
	}
	// Dump final value-register state: every run ends with outputs
	// whose labels summarize the whole computation.
	for r := rValLo; r <= rValHi; r++ {
		g.b.Out(uint8(r), ChOut)
		g.step(1, 1)
	}
	g.b.Halt()
	g.step(1, 1)

	// Shared worker body (all workers spawn here; behavior differs by
	// r1 and schedule).
	if g.workers > 0 {
		wm := int64(g.workers)
		for i := 1; i <= g.workers; i++ {
			g.b.Label(fmt.Sprintf("w%d", i))
		}
		g.emitPrologue(wm)
		workerAllocs := 0
		for p := 0; p < g.phases; p++ {
			if p == 0 && handshake {
				g.b.FlagWait(0, flagAddr)
				g.step(1, wm)
			}
			g.body(sctx{mul: wm, allocs: &workerAllocs})
			if p < g.phases-1 {
				g.b.Barrier(0, barrierAddr, rCount)
				g.step(1, wm)
			}
		}
		if g.r.coin(1, 2) {
			g.b.Out(uint8(g.valReg()), ChOut)
			g.step(1, wm)
		}
		g.b.Halt()
		g.step(1, wm)
	}

	if g.usedHelper {
		for _, h := range g.helpers {
			g.b.Label(h.name)
			h.emit(g.b)
		}
	}

	prog := g.b.MustBuild()

	// Input supply: the static worst case plus slack, so IN can never
	// block and the run can never deadlock on input.
	supply := g.ins + 8
	inputs := make([]int64, supply)
	for i := range inputs {
		inputs[i] = int64(g.r.intn(1000))
	}

	par := Params{
		MemWords:      4096,
		StackWords:    256,
		MaxThreads:    g.workers + 1,
		Quantum:       3 + g.r.intn(14),
		Seed:          g.r.next(),
		MaxSteps:      uint64(4*g.worst) + 4096,
		RandomPreempt: g.r.coin(3, 4),
	}

	return &Generated{
		Seed:       seed,
		Prog:       prog,
		Inputs:     map[int][]int64{ChIn: inputs},
		Par:        par,
		WorstSteps: g.worst,
	}
}

// step accounts k emitted instructions executing at worst mul times.
func (g *gen) step(k int, mul int64) { g.worst += int64(k) * mul }

func (g *gen) label() string {
	g.labels++
	return fmt.Sprintf("L%d", g.labels)
}

func (g *gen) valReg() uint8 { return uint8(rValLo + g.r.intn(rValHi-rValLo+1)) }

// emitPrologue sets up the fixed-role registers and seeds the value
// registers with constants. mul is the worst-case multiplier of the
// role (1 for main, workers for the shared worker body).
func (g *gen) emitPrologue(mul int64) {
	b := g.b
	n := 0
	b.Movi(rShared, sharedBase)
	b.Muli(rPriv, rIdx, int64(g.cfg.PrivWords))
	b.Addi(rPriv, rPriv, g.privBase)
	n += 3
	if g.cfg.CAS {
		b.Movi(rCas, casAddr)
		n++
	}
	if g.workers > 0 {
		b.Movi(rCount, int64(g.workers+1))
		n++
	}
	for r := rValLo; r <= rValHi; r++ {
		b.Movi(uint8(r), int64(g.r.intn(128)))
		n++
	}
	g.step(n, mul)
}

// genHelpers pre-generates up to two straight-line callees.
func (g *gen) genHelpers() {
	nh := g.r.intn(3)
	for i := 0; i < nh; i++ {
		type instr struct {
			kind int
			rd   uint8
			ra   uint8
			rb   uint8
			op   isa.Op
			off  int64
		}
		var body []instr
		k := 2 + g.r.intn(4)
		for j := 0; j < k; j++ {
			in := instr{rd: g.valReg(), ra: g.valReg(), rb: g.valReg()}
			switch g.r.intn(3) {
			case 0:
				in.kind = 0
				in.op = g.aluOp()
			case 1:
				in.kind = 1
				in.off = int64(g.r.intn(g.cfg.SharedWords))
			default:
				in.kind = 2
				in.off = int64(g.r.intn(g.cfg.SharedWords))
			}
			body = append(body, in)
		}
		name := fmt.Sprintf("h%d", i)
		g.helpers = append(g.helpers, helper{
			name: name,
			len:  k + 1,
			emit: func(b *isa.Builder) {
				for _, in := range body {
					switch in.kind {
					case 0:
						b.Op3(in.op, in.rd, in.ra, in.rb)
					case 1:
						b.Load(in.rd, rShared, in.off)
					case 2:
						b.Store(rShared, in.off, in.ra)
					}
				}
				b.Ret()
			},
		})
	}
}

// aluOp picks a non-trapping three-register ALU or compare opcode.
func (g *gen) aluOp() isa.Op {
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE,
		isa.CMPGT, isa.CMPGE}
	return ops[g.r.intn(len(ops))]
}

// body emits 1+intn(MaxBodyOps) statements under ctx.
func (g *gen) body(c sctx) {
	n := 1 + g.r.intn(g.cfg.MaxBodyOps)
	for i := 0; i < n; i++ {
		g.stmt(c)
	}
}

// candidates returns the weighted statement pool legal under c.
func (g *gen) candidates(c sctx) []stmtKind {
	add := func(pool []stmtKind, k stmtKind, w int) []stmtKind {
		for i := 0; i < w; i++ {
			pool = append(pool, k)
		}
		return pool
	}
	var pool []stmtKind
	pool = add(pool, sAlu, 4)
	pool = add(pool, sAluI, 2)
	pool = add(pool, sMovi, 1)
	pool = add(pool, sMov, 1)
	pool = add(pool, sDiv, 1)
	pool = add(pool, sIn, 3)
	pool = add(pool, sOut, 2)
	pool = add(pool, sInavail, 1)
	pool = add(pool, sLoadS, 2)
	pool = add(pool, sStoreS, 2)
	pool = add(pool, sLoadD, 1)
	pool = add(pool, sStoreD, 1)
	pool = add(pool, sYield, 1)
	pool = add(pool, sAssert, 1)
	pool = add(pool, sSwitch, 1)
	if g.cfg.CAS {
		pool = add(pool, sCas, 1)
	}
	if g.cfg.Flags {
		pool = add(pool, sFlag, 1)
	}
	if c.branchDepth < 2 {
		pool = add(pool, sIf, 2)
	}
	if !c.inCrit {
		if c.loopDepth < g.cfg.MaxLoopDepth && c.branchDepth == 0 {
			pool = add(pool, sLoop, 2)
		}
		if g.cfg.Locks {
			pool = add(pool, sCrit, 1)
		}
		if len(g.helpers) > 0 {
			pool = add(pool, sCall, 1)
		}
		if c.loopDepth == 0 && c.branchDepth == 0 && *c.allocs < 2 {
			pool = add(pool, sAlloc, 1)
		}
	}
	return pool
}

// stmt emits one statement under c, accounting its worst-case cost.
func (g *gen) stmt(c sctx) {
	b := g.b
	pool := g.candidates(c)
	switch pool[g.r.intn(len(pool))] {
	case sAlu:
		b.Op3(g.aluOp(), g.valReg(), g.valReg(), g.valReg())
		g.step(1, c.mul)
	case sAluI:
		rd, ra := g.valReg(), g.valReg()
		imm := int64(g.r.intn(64)) - 16
		switch g.r.intn(3) {
		case 0:
			b.Addi(rd, ra, imm)
		case 1:
			b.Muli(rd, ra, imm)
		default:
			b.Andi(rd, ra, imm)
		}
		g.step(1, c.mul)
	case sMovi:
		b.Movi(g.valReg(), int64(g.r.intn(256)))
		g.step(1, c.mul)
	case sMov:
		b.Mov(g.valReg(), g.valReg())
		g.step(1, c.mul)
	case sDiv:
		// Guarded division: divisor forced into [1,8].
		rd, ra, rb := g.valReg(), g.valReg(), g.valReg()
		b.Andi(rScr, rb, 7)
		b.Addi(rScr, rScr, 1)
		if g.r.coin(1, 2) {
			b.Div(rd, ra, rScr)
		} else {
			b.Mod(rd, ra, rScr)
		}
		g.step(3, c.mul)
	case sIn:
		b.In(g.valReg(), ChIn)
		g.step(1, c.mul)
		g.ins += c.mul
	case sOut:
		b.Out(g.valReg(), ChOut)
		g.step(1, c.mul)
	case sInavail:
		b.InAvail(g.valReg(), ChIn)
		g.step(1, c.mul)
	case sLoadS, sStoreS, sLoadD, sStoreD:
		g.memStmt(c)
	case sCas:
		b.Cas(g.valReg(), rCas, g.valReg(), int64(g.r.intn(64)))
		g.step(1, c.mul)
	case sFlag:
		// Scratch flag words 5..7 — never waited on, so stray writes
		// cannot deadlock the phase-0 handshake.
		off := int64(padAddr + g.r.intn(3))
		if g.r.coin(1, 2) {
			b.FlagSet(0, off)
		} else {
			b.FlagClr(0, off)
		}
		g.step(1, c.mul)
	case sCrit:
		g.critStmt(c)
	case sIf:
		g.ifStmt(c)
	case sLoop:
		g.loopStmt(c)
	case sCall:
		h := g.helpers[g.r.intn(len(g.helpers))]
		g.usedHelper = true
		if g.r.coin(1, 3) {
			b.Call(h.name)
			g.step(1+h.len, c.mul)
			break
		}
		// Indirect: a value register masked to 0 plus the entry, so the
		// target carries that register's label to the sink.
		b.Andi(rScr, g.valReg(), 0)
		b.IndirectTo(isa.CALLR, rScr, h.name)
		g.step(3+h.len, c.mul)
	case sSwitch:
		g.switchStmt(c)
	case sYield:
		b.Yield()
		g.step(1, c.mul)
	case sAssert:
		ra := g.valReg()
		b.Cmp(isa.CMPEQ, rScr, ra, ra)
		b.Assert(rScr)
		g.step(2, c.mul)
	case sAlloc:
		*c.allocs++
		b.Movi(rScr, int64(1+g.r.intn(8)))
		b.Alloc(rScr2, rScr)
		b.Store(rScr2, 0, g.valReg())
		b.Load(g.valReg(), rScr2, 0)
		g.step(4, c.mul)
	}
}

// memStmt emits a load or store, static or dynamically indexed,
// against the shared or this thread's private region.
func (g *gen) memStmt(c sctx) {
	b := g.b
	base, words := uint8(rShared), g.cfg.SharedWords
	if g.r.coin(1, 2) {
		base, words = rPriv, g.cfg.PrivWords
	}
	load := g.r.coin(1, 2)
	if g.r.coin(1, 2) {
		// Static offset.
		off := int64(g.r.intn(words))
		if load {
			b.Load(g.valReg(), base, off)
		} else {
			b.Store(base, off, g.valReg())
		}
		g.step(1, c.mul)
		return
	}
	// Dynamic masked index: addr = base + (val & (words-1)).
	b.Andi(rScr, g.valReg(), int64(words-1))
	b.Add(rScr, rScr, base)
	if load {
		b.Load(g.valReg(), rScr, 0)
	} else {
		b.Store(rScr, 0, g.valReg())
	}
	g.step(3, c.mul)
}

// critStmt emits a straight-line lock/unlock critical section over
// the global lock word.
func (g *gen) critStmt(c sctx) {
	b := g.b
	b.Lock(0, lockAddr)
	g.step(1, c.mul)
	inner := 1 + g.r.intn(3)
	for i := 0; i < inner; i++ {
		g.oneInstr()
		g.step(1, c.mul)
	}
	b.Unlock(0, lockAddr)
	g.step(1, c.mul)
}

// oneInstr emits a statement of exactly one instruction: an ALU op, or
// a static-offset load or store on the shared region.
func (g *gen) oneInstr() {
	b := g.b
	switch g.r.intn(3) {
	case 0:
		b.Op3(g.aluOp(), g.valReg(), g.valReg(), g.valReg())
	case 1:
		b.Load(g.valReg(), rShared, int64(g.r.intn(g.cfg.SharedWords)))
	default:
		b.Store(rShared, int64(g.r.intn(g.cfg.SharedWords)), g.valReg())
	}
}

// switchStmt emits a jump table: a BRR, indexed by a value register or
// a fresh input, to one of 2 or 4 cases of one instruction and a branch
// to the end.
func (g *gen) switchStmt(c sctx) {
	b := g.b
	k := 2 << g.r.intn(2)
	idx := g.valReg()
	if g.r.coin(1, 2) { // an input-tainted target, the attack-detection case
		idx = rScr
		b.In(rScr, ChIn)
		g.step(1, c.mul)
		g.ins += c.mul
	}
	b.Andi(rScr, idx, int64(k-1))
	b.Muli(rScr, rScr, 2) // case length
	cases, end := g.label(), g.label()
	b.IndirectTo(isa.BRR, rScr, cases)
	b.Label(cases)
	for i := 0; i < k; i++ {
		g.oneInstr()
		b.Br(end)
	}
	b.Label(end)
	g.step(6, c.mul) // andi, muli, addi, brr, one case and its br
}

// ifStmt emits a forward if (optionally if/else) over a register
// compare; both arms are accounted in the worst case.
func (g *gen) ifStmt(c sctx) {
	b := g.b
	cc := c
	cc.branchDepth++
	b.Cmp(g.cmpOp(), rScr, g.valReg(), g.valReg())
	g.step(2, c.mul) // cmp + beqz
	hasElse := g.r.coin(1, 2)
	endL := g.label()
	elseL := endL
	if hasElse {
		elseL = g.label()
	}
	b.Beqz(rScr, elseL)
	thenN := 1 + g.r.intn(3)
	for i := 0; i < thenN; i++ {
		g.stmt(cc)
	}
	if hasElse {
		b.Br(endL)
		g.step(1, c.mul)
		b.Label(elseL)
		elseN := 1 + g.r.intn(3)
		for i := 0; i < elseN; i++ {
			g.stmt(cc)
		}
	}
	b.Label(endL)
}

func (g *gen) cmpOp() isa.Op {
	ops := []isa.Op{isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE}
	return ops[g.r.intn(len(ops))]
}

// loopStmt emits a counted post-test loop with a known trip count.
func (g *gen) loopStmt(c sctx) {
	b := g.b
	trip := 1 + g.r.intn(g.cfg.MaxTrip)
	rl, rb := uint8(rLoop0), uint8(rBound0)
	if c.loopDepth == 1 {
		rl, rb = rLoop1, rBound1
	}
	b.Movi(rl, 0)
	b.Movi(rb, int64(trip))
	g.step(2, c.mul)
	head := g.label()
	b.Label(head)
	cc := c
	cc.loopDepth++
	cc.mul = c.mul * int64(trip)
	bodyN := 1 + g.r.intn(4)
	for i := 0; i < bodyN; i++ {
		g.stmt(cc)
	}
	b.Addi(rl, rl, 1)
	b.Blt(rl, rb, head)
	g.step(2, cc.mul)
}
