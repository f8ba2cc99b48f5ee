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
	"slices"

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

// pattern is one O2 dictionary entry of a use site: the dependence
// on the instance delta back in the same thread, defined at defPC.
type pattern struct {
	defPC int32
	delta uint64
	kind  ddg.Kind
}

// defSite is O2's learning state for one (def PC, kind) a use site has
// depended on in its own thread: how often each instance distance has
// occurred. A distance seen DictThreshold times is in the dictionary.
// Distances do not stay few — a load fed by ever-older stores mints a
// new one every few instructions — so they are hashed, not listed.
type defSite struct {
	defPC int32
	kind  ddg.Kind
	seen  map[uint64]int
}

type loadState struct {
	lastN uint64 // previous retained instance of this load (0: none yet)
	def   ddg.ID // its memory dependence def
}

// tables is the reconstruction state a Reader needs to re-synthesize
// elided edges: O1's static in-block dependences (derivable from the
// binary alone, see Reconstructor) and O2's learned dictionary (run
// state of the recording Tracer). Both are indexed by use PC and are
// the very tables the Tracer elides against, so writer and reader
// cannot disagree about what was elided.
type tables struct {
	staticByUse [][]int32   // in-block def PCs per use PC; nil when O1 is off
	dictByUse   [][]pattern // learned patterns per use PC; nil without a recording Tracer
}

// byPC indexes one of the tables by any pc: the Reader's hints come
// from stored edges, which a foreign trace can set to anything.
func byPC[T any](table [][]T, pc int32) []T {
	if uint(pc) < uint(len(table)) {
		return table[pc]
	}
	return nil
}

// staticByUse builds the O1 table — the part of tables the program
// text determines; nil when O1 is off.
func staticByUse(prog *isa.Program, opts Options) [][]int32 {
	if !opts.ElideStaticBlockDeps {
		return nil
	}
	byUse := make([][]int32, len(prog.Instrs))
	for _, deps := range isa.BlockStaticDeps(isa.BuildCFG(prog)) {
		for _, d := range deps {
			byUse[d.Use] = append(byUse[d.Use], int32(d.Def))
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

	tables // O1 and O2 elide against the tables the Reader reconstructs from
	// O2 state: the def sites seen from each use PC.
	dictSites [][]defSite
	// O3 state: per tid, per load PC.
	loads [][]loadState
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
		prog:   prog,
		opts:   opts,
		buf:    ddg.NewCompact(opts.BufferBytes),
		tables: tables{staticByUse: staticByUse(prog, opts)},
	}
	if opts.TraceDictionary {
		t.dictByUse = make([][]pattern, len(prog.Instrs))
		t.dictSites = make([][]defSite, len(prog.Instrs))
	}
	t.ex = ddg.NewExtractor(prog, t, ddg.ExtractorOpts{ControlDeps: opts.ControlDeps})
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
	for _, ps := range t.dictByUse {
		s.DictSize += len(ps)
	}
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
		sameThread := d.Def.TID() == id.TID()
		delta := id.N() - d.Def.N()
		// O1: statically inferable in-block dependence.
		if d.Kind == ddg.Data && sameThread && delta == uint64(d.UsePC-d.DefPC) &&
			slices.Contains(byPC(t.staticByUse, d.UsePC), d.DefPC) {
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
			st := t.load(id.TID(), pc)
			if st.def == d.Def && st.lastN < id.N() {
				rlDelta = id.N() - st.lastN
				st.lastN = id.N()
				t.stats.ElidedO3++
				continue
			}
			st.lastN, st.def = id.N(), d.Def
		}
		// O2: learned dependence pattern.
		if t.opts.TraceDictionary && sameThread && t.learned(pattern{defPC: d.DefPC, delta: delta, kind: d.Kind}, d.UsePC) {
			t.stats.ElidedO2++
			continue
		}
		keep = append(keep, d)
	}
	if len(keep) == 0 && rlDelta == 0 {
		return
	}
	t.stats.DepsStored += uint64(len(keep))
	t.buf.Append(id, pc, keep, rlDelta)
}

// load returns O3's state for the static load at pc in thread tid.
func (t *Tracer) load(tid int, pc int32) *loadState {
	for tid >= len(t.loads) {
		t.loads = append(t.loads, nil)
	}
	if t.loads[tid] == nil {
		t.loads[tid] = make([]loadState, len(t.prog.Instrs))
	}
	return &t.loads[tid][pc]
}

// learned reports whether p is in usePC's dictionary; if not, it
// counts this sighting and enters p at the threshold.
func (t *Tracer) learned(p pattern, usePC int32) bool {
	sites := t.dictSites[usePC]
	i := slices.IndexFunc(sites, func(s defSite) bool { return s.defPC == p.defPC && s.kind == p.kind })
	if i < 0 {
		i = len(sites)
		sites = append(sites, defSite{defPC: p.defPC, kind: p.kind, seen: make(map[uint64]int)})
		t.dictSites[usePC] = sites
	}
	seen := sites[i].seen[p.delta]
	if seen >= t.opts.DictThreshold {
		return true
	}
	sites[i].seen[p.delta] = seen + 1
	if seen+1 == t.opts.DictThreshold {
		t.dictByUse[usePC] = append(t.dictByUse[usePC], p)
	}
	return false
}

var _ ddg.Sink = (*Tracer)(nil)
