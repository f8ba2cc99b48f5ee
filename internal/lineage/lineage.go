// Package lineage implements the paper's third DIFT instantiation
// (§3.4): lineage-set taint for data validation. The label of every
// register and memory word is the *set of input indices* the value was
// derived from, so at any output the tool can answer "which input
// words does this result depend on?" — the provenance question data-
// validation pipelines ask.
//
// Labels are roBDD references (internal/bdd). The paper's two
// empirical observations make this representation cheap: lineage sets
// of live values overlap heavily (shared subsets share subgraphs
// thanks to hash-consing), and the indices in one set are clustered
// (contiguous runs collapse to O(bits) nodes). Join is roBDD union,
// memoized in the per-manager operation cache, so the steady-state
// cost of a propagation step is a cache hit.
//
// The package has two layers:
//
//   - Domain: a dift.Domain[bdd.Ref] plugging lineage labels into the
//     generic engine (labels live in the generic shadow.Mem).
//   - Recorder / Report: the query layer. A Recorder is a dift.Sink
//     capturing the lineage of every OUT; afterwards it answers
//     per-output queries (elements, cardinality, roBDD node size),
//     lineage diffs between outputs, and an aggregate memory report
//     comparing shared roBDD nodes against naive per-set storage —
//     the §3.4 storage claim.
package lineage

import (
	"fmt"
	"sort"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/vm"
)

// Domain is the lineage-set taint domain. The zero bdd.Ref is
// bdd.False — the empty set — so "untainted" means "derived from no
// input", as the generic engine requires.
type Domain struct {
	m *bdd.Manager
}

// NewDomain creates an exact (singleton-source) lineage domain over
// input indices {0 .. 2^bits - 1}.
func NewDomain(bits int) *Domain {
	return &Domain{m: bdd.NewManager(bits)}
}

// BitsFor returns the universe width needed for n input words.
func BitsFor(n int) int {
	bits := 1
	for int64(1)<<uint(bits) < int64(n) {
		bits++
	}
	return bits
}

// Manager exposes the roBDD manager that owns every label this domain
// produces (for queries and memory reports).
func (d *Domain) Manager() *bdd.Manager { return d.m }

// Source labels a fresh input word with the singleton set of its own
// global input index.
func (d *Domain) Source(ev *vm.Event) bdd.Ref { return d.m.Singleton(int64(ev.InputIdx)) }

// Join is set union, memoized in the manager's operation cache.
func (d *Domain) Join(a, b bdd.Ref) bdd.Ref { return d.m.Union(a, b) }

// Transfer propagates the joined source lineage unchanged: computing
// does not change which inputs a value derives from.
func (d *Domain) Transfer(_ *vm.Event, src bdd.Ref) bdd.Ref { return src }

var _ dift.Domain[bdd.Ref] = (*Domain)(nil)

// NewEngine builds a DIFT engine over this domain — the generic
// shadow.Mem[bdd.Ref] instantiation — with the given policy.
func NewEngine(d *Domain, pol dift.Policy) *dift.Engine[bdd.Ref] {
	return dift.NewEngine[bdd.Ref](d, pol)
}

// OutputLineage is the recorded provenance of one OUT word.
type OutputLineage struct {
	Ch  int     // output channel
	Seq uint64  // global dynamic instruction count of the OUT
	PC  int     // instruction index of the OUT
	Val int64   // the word written
	Set bdd.Ref // lineage set (in the domain's manager)
}

// Recorder is a dift.Sink capturing per-output lineage. Attach it to
// the engine, run, then query.
type Recorder struct {
	dift.NopSink[bdd.Ref]
	dom     *Domain
	Outputs []OutputLineage
}

// NewRecorder creates a recorder for labels of the given domain.
func NewRecorder(d *Domain) *Recorder { return &Recorder{dom: d} }

// OnOutput records the lineage of one OUT word.
func (r *Recorder) OnOutput(ev *vm.Event, l bdd.Ref) {
	r.Outputs = append(r.Outputs, OutputLineage{
		Ch: ev.Ch, Seq: ev.Seq, PC: ev.PC, Val: ev.IOVal, Set: l,
	})
}

var _ dift.Sink[bdd.Ref] = (*Recorder)(nil)

// Info summarizes one output's lineage.
type Info struct {
	Elements []int64 // input indices, ascending
}

// Lineage answers the per-output query for recorded output i.
func (r *Recorder) Lineage(i int) Info {
	s := r.Outputs[i].Set
	return Info{Elements: r.dom.m.Elements(s, nil)}
}

// nodeBytes is the storage cost of one roBDD node: level (4) + lo (4)
// + hi (4) plus the unique-table entry's Ref (4).
const nodeBytes = 16

// naiveElemBytes is the storage cost of one element in a naive
// per-value int64 set representation.
const naiveElemBytes = 8

// Report is the aggregate memory accounting over all recorded
// outputs — the §3.4 claim that shared roBDDs stay far below naive
// per-set storage when live lineages overlap.
type Report struct {
	Outputs      int    // recorded OUT words
	TotalElems   uint64 // Σ |set_i| — cells a naive representation stores
	NaiveBytes   uint64 // TotalElems × 8
	SharedNodes  int    // distinct roBDD nodes reachable from all sets
	SharedBytes  uint64 // SharedNodes × nodeBytes
	ManagerNodes int    // every node the manager ever allocated
}

// SharingFactor is naive cells per shared roBDD node; > 1 means the
// shared representation wins, and it grows with overlap.
func (rp Report) SharingFactor() float64 {
	if rp.SharedNodes == 0 {
		return 0
	}
	return float64(rp.TotalElems) / float64(rp.SharedNodes)
}

// String renders the report for logs.
func (rp Report) String() string {
	return fmt.Sprintf(
		"lineage report: %d outputs, %d naive cells (%d B) vs %d shared roBDD nodes (%d B), sharing ×%.1f, manager %d nodes",
		rp.Outputs, rp.TotalElems, rp.NaiveBytes, rp.SharedNodes, rp.SharedBytes,
		rp.SharingFactor(), rp.ManagerNodes)
}

// Report computes the aggregate memory report over all recorded
// outputs.
//
//scaldift:ignore deadexport ROADMAP item 12 reports the paper's §3.4 lineage memory figures from it
func (r *Recorder) Report() Report {
	m := r.dom.m
	rp := Report{Outputs: len(r.Outputs), ManagerNodes: m.NumNodes()}
	roots := make([]bdd.Ref, len(r.Outputs))
	for i, o := range r.Outputs {
		roots[i] = o.Set
		rp.TotalElems += m.Count(o.Set)
	}
	rp.SharedNodes = m.NodeSizeAll(roots)
	rp.NaiveBytes = rp.TotalElems * naiveElemBytes
	rp.SharedBytes = uint64(rp.SharedNodes) * nodeBytes
	return rp
}

// Run executes machine m with a fresh lineage engine and recorder
// attached and returns both after the run, plus the VM result. It is
// the one-call entry point for "trace this run's provenance".
func Run(m *vm.Machine, d *Domain, pol dift.Policy) (*dift.Engine[bdd.Ref], *Recorder, *vm.Result) {
	e := NewEngine(d, pol)
	rec := NewRecorder(d)
	e.AddSink(rec)
	m.AttachTool(e)
	res := m.Run()
	return e, rec, res
}

// SortedEquals reports whether got (ascending) equals the possibly
// unsorted want — a helper for tests asserting exact lineages.
func SortedEquals(got, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	w := append([]int64(nil), want...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range got {
		if got[i] != w[i] {
			return false
		}
	}
	return true
}
