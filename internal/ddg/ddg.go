// Package ddg defines dynamic dependence graphs: the nodes are
// executed instruction instances, the edges dynamic data, control,
// and (for race detection) WAR/WAW dependences.
//
// Two representations are provided, mirroring the paper's storage
// study (§2.1): Full is the naive in-memory graph (the "16 bytes per
// instruction" end of the spectrum; here the tests' reference model)
// and Compact is the delta/varint encoded stream with optional ring
// eviction that ONTRAC's circular trace buffer uses (the "0.8 bytes
// per instruction" end) — one buffer per trace, inline or offloaded,
// whose sealed chunks internal/store persists and serves back as the
// third Source, store.Reader.
//
// The Extractor (track.go) is the one front end that turns the event
// stream into dependences. It and Compact are single-goroutine state:
// the machine's execution thread drives them inline, the ONTRAC
// helper goroutine drives them offloaded.
package ddg

import "fmt"

// ID identifies an executed instruction instance: the owning thread
// in the top 16 bits and the 1-based per-thread dynamic instruction
// number in the low 48. The zero ID is "no node".
type ID uint64

// MakeID builds an instance id from thread and per-thread number.
func MakeID(tid int, n uint64) ID { return ID(uint64(tid)<<48 | n&(1<<48-1)) }

// TID returns the owning thread.
func (id ID) TID() int { return int(id >> 48) }

// N returns the per-thread dynamic instruction number.
func (id ID) N() uint64 { return uint64(id) & (1<<48 - 1) }

// String renders the id as tid:n.
func (id ID) String() string { return fmt.Sprintf("%d:%d", id.TID(), id.N()) }

// Kind classifies a dependence edge.
type Kind uint8

// Dependence kinds.
const (
	// Data is a read-after-write (flow) dependence.
	Data Kind = iota
	// Control links an instance to the predicate instance governing
	// its execution.
	Control
	// WAR is a write-after-read anti-dependence (race detection).
	WAR
	// WAW is a write-after-write output dependence (race detection).
	WAW
	// SameAs marks a redundant-load elision (ONTRAC O3): this load's
	// memory dependence equals that of the referenced earlier
	// instance of the same static load. Traversals follow it like a
	// data edge; the referenced node has the same static PC.
	SameAs
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Control:
		return "control"
	case WAR:
		return "war"
	case WAW:
		return "waw"
	case SameAs:
		return "same-as"
	}
	return "kind(?)"
}

// Dep is one dependence edge. DefPC is carried on the edge so that
// statement-level slices can include the defining statement even when
// the def node itself stored no record.
type Dep struct {
	Use   ID
	UsePC int32
	Def   ID
	DefPC int32
	Kind  Kind
}

// Source is the read interface dynamic slicing consumes. Both graph
// representations, store.Reader and ONTRAC's reconstructing reader
// over any of them implement it.
type Source interface {
	// Threads lists thread ids with any recorded nodes.
	Threads() []int
	// Window returns the inclusive per-thread range [lo,hi] of
	// dynamic instruction numbers still available (ring buffers
	// evict the oldest). lo=hi=0 means nothing available.
	Window(tid int) (lo, hi uint64)
	// DepsOf calls yield for every dependence whose Use is id.
	DepsOf(id ID, yield func(Dep))
	// NodePC returns the static PC of a recorded instance.
	NodePC(id ID) (int32, bool)
}

// CountDeps is a convenience that materializes DepsOf.
func CountDeps(s Source, id ID) []Dep {
	var out []Dep
	s.DepsOf(id, func(d Dep) { out = append(out, d) })
	return out
}
