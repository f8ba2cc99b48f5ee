// Package ontrac implements ONTRAC (§2.1, [4]): online construction
// of the dynamic dependence graph in a fixed-size circular buffer,
// with the optimizations that cut the paper's trace rate from 16
// bytes per executed instruction to under one:
//
//	O1 — dependences within a basic block that static examination of
//	     the binary resolves are never stored (re-inferred at slicing
//	     time),
//	O2 — the same idea extended to frequently recurring dependence
//	     patterns spanning several blocks (a dynamically learned
//	     trace dictionary),
//	O3 — dynamically detected redundant loads store a one-byte
//	     "same as previous instance" marker instead of the full edge,
//	T1 — selective tracing of user-specified functions that keeps
//	     dependence chains intact (definitions in untraced code are
//	     still tracked, so stored edges point through them),
//	T2 — only dependences in the forward slice of the program inputs
//	     are stored (an online boolean-taint computation).
//
// O1–O3 are lossless: the Reader re-synthesizes the elided edges.
// T1/T2 are targeted (lossy by design): the paper argues the bug is
// in the traced functions / input's forward slice respectively.
package ontrac

import (
	"scaldift/internal/ddg"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// Options selects buffer capacity and optimizations.
type Options struct {
	// BufferBytes is the circular trace buffer capacity; 0 means
	// unbounded (no eviction). The paper's configuration is 16MB.
	BufferBytes int
	// ControlDeps records dynamic control dependences.
	ControlDeps bool
	// ElideStaticBlockDeps enables O1.
	ElideStaticBlockDeps bool
	// TraceDictionary enables O2. A dependence pattern enters the
	// dictionary after DictThreshold occurrences (default 2).
	TraceDictionary bool
	DictThreshold   int
	// ElideRedundantLoads enables O3.
	ElideRedundantLoads bool
	// TraceFuncs, when non-empty, enables T1: only dependences whose
	// use lies in one of the named functions are stored.
	TraceFuncs []string
	// ForwardSliceOfInputs enables T2.
	ForwardSliceOfInputs bool
}

// AllOptimizations returns the full optimization stack with a 16MB
// buffer, the paper's headline configuration (minus T1, which needs a
// function list from the user).
func AllOptimizations() Options {
	return Options{
		BufferBytes:          16 << 20,
		ControlDeps:          true,
		ElideStaticBlockDeps: true,
		TraceDictionary:      true,
		ElideRedundantLoads:  true,
		ForwardSliceOfInputs: true,
	}
}

// Unoptimized returns a configuration that stores every dependence
// (the 16-bytes-per-instruction end of the spectrum).
func Unoptimized() Options {
	return Options{ControlDeps: true}
}

// Stats reports what the tracer stored and what each optimization
// elided.
type Stats struct {
	Instrs       uint64 // instructions executed
	DepsSeen     uint64 // dependences produced by the extractor
	DepsStored   uint64
	ElidedO1     uint64 // static in-block
	ElidedO2     uint64 // trace dictionary
	ElidedO3     uint64 // redundant loads (markers written instead)
	ElidedT1     uint64 // outside traced functions
	ElidedT2     uint64 // outside the input's forward slice
	BytesWritten uint64
	DictSize     int
}

// BytesPerInstr is the headline trace-rate metric.
func (s Stats) BytesPerInstr() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.BytesWritten) / float64(s.Instrs)
}

type dictKey struct {
	usePC int32
	defPC int32
	delta uint64
	kind  ddg.Kind
}

type loadState struct {
	lastN uint64 // previous retained instance of this load
	def   ddg.ID // its memory dependence def
}

// tables is the reconstruction state a Reader needs to re-synthesize
// elided edges: O1's static in-block dependences (derivable from the
// binary alone, see Reconstructor) and O2's learned dictionary (run
// state of the recording Tracer), both indexed by use PC.
type tables struct {
	staticByUse map[int32][]isa.StaticDep
	dictByUse   map[int32][]dictKey
}

// staticByUse builds the O1 table — the part of tables the program
// text determines; nil when O1 is off.
func staticByUse(prog *isa.Program, opts Options) map[int32][]isa.StaticDep {
	if !opts.ElideStaticBlockDeps {
		return nil
	}
	byUse := make(map[int32][]isa.StaticDep)
	for _, deps := range isa.BlockStaticDeps(isa.BuildCFG(prog)) {
		for _, d := range deps {
			byUse[int32(d.Use)] = append(byUse[int32(d.Use)], d)
		}
	}
	return byUse
}

// Tracer is ONTRAC: the dependence extractor (ddg.Extractor) feeding
// the elision core (T1/T2/O1/O2/O3, the ddg.Sink methods below),
// whose surviving records land in one circular ddg.Compact buffer.
// It has one shape and two drivers: inline, attach Tool() to a
// vm.Machine and every instruction pays for the analysis on the
// execution thread; offloaded (NewOffloaded), the execution thread
// only records, and a helper goroutine feeds the same extractor the
// same events in the same order.
type Tracer struct {
	prog *isa.Program
	opts Options
	buf  *ddg.Compact
	ex   *ddg.Extractor

	tables
	// O1 state.
	staticPairs map[[2]int32]bool
	// O2 state.
	dictCounts map[dictKey]int
	dict       map[dictKey]bool
	// O3 state: per (tid, pc).
	loads map[[2]int32]*loadState
	// T1 state.
	traced []bool
	// T2 state.
	taint    *dift.Engine[bool]
	affected bool

	stats Stats
}

// New builds a tracer for prog.
func New(prog *isa.Program, opts Options) *Tracer {
	if opts.DictThreshold <= 0 {
		opts.DictThreshold = 2
	}
	t := &Tracer{
		prog:       prog,
		opts:       opts,
		buf:        ddg.NewCompact(opts.BufferBytes),
		tables:     tables{staticByUse: staticByUse(prog, opts), dictByUse: make(map[int32][]dictKey)},
		dictCounts: make(map[dictKey]int),
		dict:       make(map[dictKey]bool),
		loads:      make(map[[2]int32]*loadState),
	}
	t.ex = ddg.NewExtractor(prog, t, ddg.ExtractorOpts{ControlDeps: opts.ControlDeps})
	if t.staticByUse != nil {
		t.staticPairs = make(map[[2]int32]bool)
		for _, deps := range t.staticByUse {
			for _, d := range deps {
				t.staticPairs[[2]int32{int32(d.Use), int32(d.Def)}] = true
			}
		}
	}
	if len(opts.TraceFuncs) > 0 {
		t.traced = make([]bool, len(prog.Instrs))
		for _, name := range opts.TraceFuncs {
			if fr, ok := prog.Funcs[name]; ok {
				for pc := fr.Start; pc < fr.End; pc++ {
					t.traced[pc] = true
				}
			}
		}
	}
	if opts.ForwardSliceOfInputs {
		t.taint = dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy())
	}
	return t
}

// Tool returns the vm.Tool to attach for an inline run (the
// underlying extractor).
func (t *Tracer) Tool() vm.Tool { return t.ex }

// Buffer exposes the circular buffer (statistics, window).
func (t *Tracer) Buffer() *ddg.Compact { return t.buf }

// LastID returns the most recent instance id of a thread, usable as
// a slicing criterion.
func (t *Tracer) LastID(tid int) ddg.ID { return t.ex.LastID(tid) }

// Stats returns a snapshot of the tracer's counters.
func (t *Tracer) Stats() Stats {
	s := t.stats
	s.Instrs = t.ex.Instrs()
	s.BytesWritten = t.buf.BytesWritten()
	s.DictSize = len(t.dict)
	return s
}

// Node implements ddg.Sink: runs the T2 taint engine and computes
// whether this instance is input-affected.
func (t *Tracer) Node(id ddg.ID, pc int32, ev *vm.Event) {
	if t.taint == nil {
		return
	}
	// Source-operand taint before the engine updates shadow state:
	// used for instructions with no destination (branches, outputs).
	srcTainted := false
	for i := 0; i < ev.NSrc; i++ {
		if t.taint.RegTaint(ev.TID, ev.SrcRegs[i]) {
			srcTainted = true
		}
	}
	if ev.SrcMem != vm.NoAddr && t.taint.MemTaint(ev.SrcMem) {
		srcTainted = true
	}
	t.taint.OnEvent(nil, ev)
	switch {
	case ev.Kind == vm.EvInput:
		t.affected = true
	case ev.DstReg >= 0:
		t.affected = t.taint.RegTaint(ev.TID, ev.DstReg) || srcTainted
	case ev.DstMem != vm.NoAddr:
		t.affected = t.taint.MemTaint(ev.DstMem) || srcTainted
	default:
		t.affected = srcTainted
	}
}

// Deps implements ddg.Sink: applies T1/T2/O1/O2/O3 and stores what
// survives into the circular buffer.
func (t *Tracer) Deps(id ddg.ID, pc int32, deps []ddg.Dep) {
	t.stats.DepsSeen += uint64(len(deps))
	if len(deps) == 0 {
		return
	}
	// T1: only uses inside traced functions are stored. Definitions
	// elsewhere were still tracked by the extractor, so chains are
	// unbroken.
	if t.traced != nil && !t.traced[pc] {
		t.stats.ElidedT1 += uint64(len(deps))
		return
	}
	// T2: only input-affected instances are stored.
	if t.taint != nil && !t.affected {
		t.stats.ElidedT2 += uint64(len(deps))
		return
	}

	keep := deps[:0]
	var rlDelta uint64
	for _, d := range deps {
		// O1: statically inferable in-block dependence.
		if t.staticPairs != nil && d.Kind == ddg.Data && d.Def.TID() == id.TID() &&
			t.staticPairs[[2]int32{d.UsePC, d.DefPC}] &&
			id.N()-d.Def.N() == uint64(d.UsePC-d.DefPC) {
			t.stats.ElidedO1++
			continue
		}
		// O3: redundant load — same memory def as the previous
		// instance of this static load. The memory dependence is the
		// edge whose definer is a store-class instruction (the
		// address-register edge's definer writes a register).
		if t.opts.ElideRedundantLoads && d.Kind == ddg.Data &&
			t.prog.Instrs[pc].Op == isa.LOAD && d.Def != 0 &&
			t.prog.Instrs[d.DefPC].Op.Stores() {
			key := [2]int32{int32(id.TID()), pc}
			if st, ok := t.loads[key]; ok && st.def == d.Def && st.lastN < id.N() {
				rlDelta = id.N() - st.lastN
				st.lastN = id.N()
				t.stats.ElidedO3++
				continue
			}
			if st, ok := t.loads[key]; ok {
				st.lastN = id.N()
				st.def = d.Def
			} else {
				t.loads[key] = &loadState{lastN: id.N(), def: d.Def}
			}
		}
		// O2: learned dependence pattern.
		if t.opts.TraceDictionary && d.Def.TID() == id.TID() {
			key := dictKey{usePC: d.UsePC, defPC: d.DefPC,
				delta: id.N() - d.Def.N(), kind: d.Kind}
			if t.dict[key] {
				t.stats.ElidedO2++
				continue
			}
			t.dictCounts[key]++
			if t.dictCounts[key] >= t.opts.DictThreshold {
				t.dict[key] = true
				t.dictByUse[d.UsePC] = append(t.dictByUse[d.UsePC], key)
				delete(t.dictCounts, key)
			}
		}
		keep = append(keep, d)
	}
	if len(keep) == 0 && rlDelta == 0 {
		return
	}
	t.stats.DepsStored += uint64(len(keep))
	t.buf.Append(id, pc, keep, rlDelta)
}

var _ ddg.Sink = (*Tracer)(nil)
