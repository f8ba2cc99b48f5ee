package ddg

import (
	"scaldift/internal/cdep"
	"scaldift/internal/isa"
	"scaldift/internal/shadow"
	"scaldift/internal/vm"
)

// Sink consumes the dependence stream the Extractor produces. Node is
// called once per executed instruction (in per-thread order); Deps is
// called with that instance's dependences (possibly empty).
type Sink interface {
	Node(id ID, pc int32, ev *vm.Event)
	Deps(id ID, pc int32, deps []Dep)
}

// tag records the last definition of a location.
type tag struct {
	id ID
	pc int32
}

// TraceRelevant is the tracing-relevance filter for vm.Recorder,
// beside dift.Relevant: it selects the events dependence extraction
// consumes. Unlike taint propagation, tracing needs every completed
// instruction — the control-dependence tracker closes predicate
// regions by watching each executed PC, and bytes-per-instruction
// accounting counts them all — so only blocked retries are dropped.
func TraceRelevant(ev *vm.Event) bool { return !ev.Blocked }

// Extractor is a vm.Tool that converts the instruction event stream
// into dynamic dependences, reporting (use ← def) edges to a Sink. It
// is the front end of ONTRAC, inline and offloaded alike: inline the
// machine calls OnEvent behind every instruction; offloaded, the
// helper goroutine calls it with the recorded events, batch by batch.
// Either way it sees one event at a time in the order they executed,
// so the dependence semantics exist exactly once and the Extractor is
// single-goroutine state: last-definition tags per thread register
// and per memory word, plus the per-thread control-dependence stacks.
type Extractor struct {
	ctrl *cdep.Tracker // nil when control deps are off
	sink Sink

	threads []*threadState
	memTags *shadow.Mem[tag]
	depBuf  []Dep
	instrs  uint64
}

// threadState is one thread's private extraction state.
type threadState struct {
	regTags [isa.NumRegs]tag
	ctrl    *cdep.ThreadTracker // nil when control deps are off
	lastN   uint64              // instance number of the newest instruction
}

// ExtractorOpts configures optional dependence classes.
type ExtractorOpts struct {
	// ControlDeps enables dynamic control dependence edges.
	ControlDeps bool
}

// NewExtractor builds an extractor for prog reporting to sink.
func NewExtractor(prog *isa.Program, sink Sink, opts ExtractorOpts) *Extractor {
	e := &Extractor{sink: sink, memTags: shadow.NewMem[tag]()}
	if opts.ControlDeps {
		e.ctrl = cdep.New(prog)
	}
	return e
}

// Instrs returns the number of instructions observed (the denominator
// of bytes-per-instruction).
func (e *Extractor) Instrs() uint64 { return e.instrs }

// LastID returns the id of the most recent instruction of a thread;
// the zero ID means the thread never executed one (covering threads
// only known through a spawn that seeded their registers).
func (e *Extractor) LastID(tid int) ID {
	if tid >= len(e.threads) || e.threads[tid] == nil || e.threads[tid].lastN == 0 {
		return 0
	}
	return MakeID(tid, e.threads[tid].lastN)
}

// thread returns (creating if needed) tid's private state.
func (e *Extractor) thread(tid int) *threadState {
	for tid >= len(e.threads) {
		e.threads = append(e.threads, nil)
	}
	if e.threads[tid] == nil {
		x := &threadState{}
		if e.ctrl != nil {
			x.ctrl = e.ctrl.Thread(tid)
		}
		e.threads[tid] = x
	}
	return e.threads[tid]
}

// OnEvent implements vm.Tool. The instance number is ev.ThreadSeq;
// the dependence list goes to the sink in a fixed order — register
// sources, the memory source, then the control parent — in a buffer
// reused per event.
func (e *Extractor) OnEvent(_ *vm.Machine, ev *vm.Event) {
	if ev.Blocked {
		return
	}
	e.instrs++
	x := e.thread(ev.TID)
	n := ev.ThreadSeq
	x.lastN = n
	id, pc := MakeID(ev.TID, n), int32(ev.PC)
	e.sink.Node(id, pc, ev)

	var parent cdep.Parent
	if x.ctrl != nil {
		parent = x.ctrl.Observe(ev.PC, n, ev.Instr.Op)
	}
	dep := func(tg tag, k Kind) Dep { return Dep{Use: id, UsePC: pc, Def: tg.id, DefPC: tg.pc, Kind: k} }
	deps := e.depBuf[:0]
	seen := [2]int{-1, -1}
	for i := 0; i < ev.NSrc; i++ {
		r := ev.SrcRegs[i]
		if r == seen[0] || r == seen[1] {
			continue // same register twice: one edge
		}
		seen[i] = r
		if tg := x.regTags[r]; tg.id != 0 {
			deps = append(deps, dep(tg, Data))
		}
	}
	if ev.DstReg > 0 { // r0 is the discard register
		x.regTags[ev.DstReg] = tag{id: id, pc: pc}
	}
	if ev.SrcMem != vm.NoAddr {
		if tg := e.memTags.Get(ev.SrcMem); tg.id != 0 {
			deps = append(deps, dep(tg, Data))
		}
	}
	if parent.N != 0 {
		deps = append(deps, dep(tag{id: MakeID(ev.TID, parent.N), pc: parent.PC}, Control))
	}
	if ev.DstMem != vm.NoAddr {
		e.memTags.Set(ev.DstMem, tag{id: id, pc: pc})
	}
	if ev.Kind == vm.EvSpawn {
		// The child's r1 receives the argument: its definition site
		// is this spawn instance.
		e.thread(int(ev.DstVal)).regTags[1] = tag{id: id, pc: pc}
	}
	e.sink.Deps(id, pc, deps)
	e.depBuf = deps[:0]
}

var _ vm.Tool = (*Extractor)(nil)

// FullSink builds a Full graph from the extractor stream.
type FullSink struct {
	G *Full
}

// NewFullSink wraps an empty Full graph.
//
//scaldift:ignore deadexport test-support: builds the uncompressed reference graph ddg, slicing, ontrac and store tests check against
func NewFullSink() *FullSink { return &FullSink{G: NewFull()} }

// Node implements Sink.
func (s *FullSink) Node(id ID, pc int32, _ *vm.Event) { s.G.AddNode(id, pc) }

// Deps implements Sink.
func (s *FullSink) Deps(_ ID, _ int32, deps []Dep) {
	for _, d := range deps {
		s.G.AddDep(d)
	}
}
