// Package slicing computes dynamic slices over dynamic dependence
// graphs (§2.1, §3.1): the backward closure of data (and optionally
// control) dependences from a slicing criterion — or the forward
// closure from a set of instances — reported as a set of statements.
// It consumes any ddg.Source — the full offline graph, the compact
// store, or ONTRAC's reconstructing reader (whose elided edges are
// resolved through the HintedSource extension).
//
// Both directions run one traversal core (traverse.go). Backward
// expands a node through the source's DepsOf; forward expands it
// through a Reverse, the def → uses index BuildReverse makes in one
// pass over the source (reverse.go). ParallelForward builds one per
// call; ForwardOver walks one the caller keeps — the query service
// caches it per closed trace generation, so repeat forward queries
// never rescan the trace. The workers argument of ParallelBackward /
// ParallelForward / ForwardOver is a switch, not a pool size:
//
//   - workers <= 1 (what Backward and Forward pass) is the solo walk:
//     one shard owning every thread, drained as a LIFO worklist on the
//     calling goroutine. No goroutine is started, so any source works,
//     including a lone ddg.Compact or an ontrac.Reader over one
//     (single-goroutine decode cache). Options.MaxNodes is exact, and
//     visit order, cancellation point and results are deterministic.
//   - workers > 1 is the sharded walk: one goroutine per trace thread,
//     each draining its own thread's frontier depth-first and handing
//     cross-thread edges to the owning thread's shard, so long
//     per-thread chains advance in parallel over the per-thread
//     layout underneath (store.Reader segments). The source — DepsOf,
//     DepsOfHinted, NodePC — must be safe for concurrent reads:
//     store.Reader and ddg.Full are; a ddg.Compact is not.
//     Options.MaxNodes and Options.Done are enforced cooperatively, so
//     a bounded or cancelled walk may visit a few nodes past the cut.
//
// Over an exact source the two settings return identical PCs, Lines,
// Nodes, Edges and TruncatedAtWindow when MaxNodes is 0: the closure
// is order-independent. The one caveat is a HintedSource whose
// reconstruction over-approximates (ontrac O2): a node's PC hint
// depends on which edge discovers it first, so different visit orders
// can reconstruct marginally different edge sets — each a valid
// over-approximation of the slice.
package slicing

import (
	"sort"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// HintedSource is implemented by sources that can reconstruct elided
// dependences given the node's static PC from traversal context
// (ontrac.Reader). Plain sources are used as-is.
type HintedSource interface {
	ddg.Source
	DepsOfHinted(id ddg.ID, pcHint int32, yield func(ddg.Dep))
}

// Criterion is a slicing start point: an instruction instance and its
// static PC (the PC lets reconstruction work even when the instance
// itself stored no record).
type Criterion struct {
	ID ddg.ID
	PC int32
}

// Options tunes the traversal.
type Options struct {
	// FollowControl includes dynamic control dependences, giving the
	// full (data+control) dynamic slice. Without it the slice is the
	// data slice.
	FollowControl bool
	// FollowAnti includes WAR/WAW edges (race-detection slicing).
	FollowAnti bool
	// MaxNodes bounds the traversal (0 = unbounded).
	MaxNodes int
	// Done, when non-nil, cancels the traversal cooperatively once it
	// becomes readable (a context's Done channel: per-query deadlines
	// in the trace query service). A cancelled traversal returns the
	// valid partial slice computed so far with Interrupted set.
	Done <-chan struct{}
}

// follows is the edge-kind filter: which dependence kinds the
// traversal crosses.
func (o *Options) follows(k ddg.Kind) bool {
	switch k {
	case ddg.Control:
		return o.FollowControl
	case ddg.WAR, ddg.WAW:
		return o.FollowAnti
	}
	return true
}

// doneFired reports whether o.Done is readable. Checked every few
// hundred nodes, not per edge: a select per edge would tax the hot
// traversal loops.
func (o *Options) doneFired() bool {
	if o.Done == nil {
		return false
	}
	select {
	case <-o.Done:
		return true
	default:
		return false
	}
}

// donePollMask throttles doneFired checks to every 256th node.
const donePollMask = 0xff

// Slice is the result: the statement-level slice plus traversal
// metadata.
type Slice struct {
	// PCs is the set of static instruction indices in the slice.
	PCs map[int32]bool
	// Lines is the sorted set of statement ids (source lines).
	Lines []int
	// Nodes is the number of dynamic instances visited.
	Nodes int
	// Edges is the number of dependence edges traversed.
	Edges int
	// TruncatedAtWindow reports that the traversal reached instances
	// evicted from a bounded buffer: the fault may predate the
	// retained execution window (§2.1's window-length concern).
	TruncatedAtWindow bool
	// Interrupted reports that Options.Done fired and the traversal
	// stopped early: the slice is a valid under-approximation, like a
	// window truncation.
	Interrupted bool
	// ShardBusy maps a shard's thread id to the time spent processing
	// its frontier, waits excluded. Key -1 is the shard for threads
	// the source never recorded — which, solo, is the only shard and
	// owns every thread. Sharded, the max entry is the traversal's
	// critical path on fully parallel hardware and the sum
	// approximates one core's sequential cost.
	ShardBusy map[int]time.Duration
}

// Contains reports whether the slice includes the statement id.
func (s *Slice) Contains(line int) bool {
	i := sort.SearchInts(s.Lines, line)
	return i < len(s.Lines) && s.Lines[i] == line
}

// Backward computes the backward dynamic slice of the criteria with
// the solo walk: ParallelBackward at workers = 1.
func Backward(src ddg.Source, prog *isa.Program, crits []Criterion, opts Options) *Slice {
	return ParallelBackward(src, prog, crits, opts, 1)
}

// ParallelBackward computes the backward dynamic slice of the
// criteria; workers selects the solo or the sharded walk (see the
// package comment).
func ParallelBackward(src ddg.Source, prog *isa.Program, crits []Criterion, opts Options, workers int) *Slice {
	t := newTraversal(src, opts, workers)
	hinted, _ := src.(HintedSource)

	// Windows are constant during a traversal: snapshot them so the
	// per-edge window check never touches the source (whose Window
	// may lock the very thread state another worker is decoding).
	// Absent tids have no records — lo = 0, like Source.Window.
	winLo := make(map[int]uint64)
	for _, tid := range src.Threads() {
		winLo[tid], _ = src.Window(tid)
	}
	t.gate = func(s *shard, it item) bool {
		if it.id == 0 {
			return false
		}
		lo := winLo[it.id.TID()]
		evicted := lo > 0 && it.id.N() < lo
		if evicted || (lo == 0 && hinted == nil) {
			// The statement reaches the slice via the incoming edge,
			// but traversal cannot continue past the buffer window.
			s.truncated = s.truncated || evicted
			if it.pc >= 0 {
				s.edgePCs[it.pc] = true
			}
			return false
		}
		return true
	}
	t.expander = func(_ *shard, edge func(ddg.ID, int32)) func(item) {
		yield := func(d ddg.Dep) {
			if opts.follows(d.Kind) {
				edge(d.Def, d.DefPC)
			}
		}
		if hinted != nil {
			return func(it item) { hinted.DepsOfHinted(it.id, it.pc, yield) }
		}
		return func(it item) { src.DepsOf(it.id, yield) }
	}
	for _, c := range crits {
		t.enqueue(t.shardOf(c.ID.TID()), item{id: c.ID, pc: c.PC})
	}
	return t.walk(prog)
}

// Forward computes the forward dynamic slice of the start instances
// with the solo walk: ParallelForward at workers = 1.
func Forward(g ddg.Source, prog *isa.Program, start []ddg.ID, opts Options) *Slice {
	return ParallelForward(g, prog, start, opts, 1)
}

// ParallelForward computes the forward dynamic slice (all instances
// affected by the start instances) over any ddg.Source; workers
// selects the solo or the sharded walk (see the package comment). It
// is BuildReverse + ForwardOver: one pass over every retained window
// builds the def → uses index — the dominant cost, and the whole of
// it when the walk is small — then the walk expands each node through
// it. A caller that answers many forward queries over an unchanging
// source builds the index once and calls ForwardOver (the query
// service caches one per closed trace). A Done that fires during the
// build returns an empty Interrupted slice rather than walking a
// partial index.
//
// Over a source with elided records (ontrac.Reader under O1/O2), the
// forward slice under-approximates: reconstruction needs each node's
// static PC from traversal context, which flows naturally along
// backward edges but not forward, so flow THROUGH a fully elided
// instance is not followed. Use the Full graph (or an unoptimized
// trace) when the exact forward closure matters. The paper computes
// the forward slice of the inputs online instead (ONTRAC T2); this
// offline version exists for fault-location experiments and
// cross-checks.
func ParallelForward(g ddg.Source, prog *isa.Program, start []ddg.ID, opts Options, workers int) *Slice {
	return ForwardOver(BuildReverse(g, opts.Done), g, prog, start, opts, workers)
}

// pcsToLines maps a PC set to a sorted, deduplicated line set. A nil
// program yields nil: the query service serves traces it has no
// program for as PC sets only.
func pcsToLines(prog *isa.Program, pcs map[int32]bool) []int {
	if prog == nil {
		return nil
	}
	seen := make(map[int]bool, len(pcs))
	for pc := range pcs {
		if line := prog.LineOf(int(pc)); line >= 0 {
			seen[line] = true
		}
	}
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}
