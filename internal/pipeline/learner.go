package pipeline

import (
	"scaldift/internal/shadow"
	"scaldift/internal/vm"
)

// This file is the window conflict analysis: the decision procedure
// that classifies each multi-thread window as parallel (per-chain
// shard ownership), grouped-parallel (chains sharing shards fused
// onto one owner), or ordered (a true cross-thread address conflict,
// replayed as the sequential Seq-ordered merge).
//
// The analysis is adaptive. A footprint learner records, per (thread,
// PC), the set of shadow pages that instruction has touched; repeat
// windows — the steady state of loop-heavy code — are then classified
// by verifying each event's page against its instruction's learned
// footprint (a few arithmetic ops per event, no allocation) instead
// of rebuilding per-address read/write sets with map inserts, which
// used to dominate the window overhead. Only windows whose learned
// footprints overlap across threads, or whose instructions roam too
// many pages to summarize, pay the precise address-level scan.

// footPages is the learned-footprint capacity per (tid, PC). An
// instruction observed touching more distinct pages than this is
// marked wide and its windows take the precise scan.
const footPages = 8

// pcWide marks a PC whose footprint overflowed footPages.
const pcWide = 0xFF

// pcFoot is one instruction's learned page footprint, plus the
// precomputed conflict-mask contribution of those pages (bit i set ⇔
// some learned page maps to shard i, see maskBit).
type pcFoot struct {
	pages [footPages]int64
	n     uint8
	mask  uint64
}

// has reports whether pg is in the learned footprint.
func (f *pcFoot) has(pg int64) bool {
	for i := uint8(0); i < f.n; i++ {
		if f.pages[i] == pg {
			return true
		}
	}
	return false
}

// LearnerStats counts window classifications; ConflictStats exposes
// them so tests can pin the adaptive behavior ("repeat windows take
// the fast path", "stale footprints fall back") and so the measured-
// rare claim about fallbacks stays measured.
type LearnerStats struct {
	// Windows is the number of multi-chain windows analyzed.
	Windows uint64
	// FastParallel windows were dispatched straight from verified
	// learned footprints, with no address-level scan.
	FastParallel uint64
	// PreciseScans is the number of windows that needed the full
	// address-level read/write-set scan (first sightings, footprint
	// changes that collide, or wide instructions).
	PreciseScans uint64
	// GroupedParallel windows ran in parallel with two or more
	// address-disjoint chains fused onto one owner because they
	// shared a shard.
	GroupedParallel uint64
	// OrderedMerges is the number of windows (excluding sync batches)
	// that fell back to the sequential Seq-ordered merge because of a
	// true cross-thread address conflict.
	OrderedMerges uint64
	// VerifyMisses counts events whose page was not yet in their
	// instruction's learned footprint (learning, or phase change).
	VerifyMisses uint64
	// WidePCs counts instructions currently marked wide.
	WidePCs uint64
}

// conflictLearner holds the per-(tid, PC) footprints and the scratch
// used to classify one window. It belongs to the consumer goroutine;
// nothing here is safe for concurrent use.
type conflictLearner struct {
	foots [][]pcFoot // [tid][pc]
	stats LearnerStats

	// Window scratch, reused across windows. A returned windowPlan
	// aliases groupsBuf/idxBuf and is valid only until the next
	// analyze call — the pipeline consumes each plan before the next
	// window, on the same goroutine.
	masks     []uint64 // per-chain conflict masks
	wide      []bool   // per-chain: contains a wide PC
	group     []int    // per-chain: DSU parent for shard grouping
	groupsBuf [][]int
	idxBuf    []int
}

// maskBit maps a page to its bit of the 64-bit conflict mask: the
// page's shard index (epochShards <= 64), so disjoint masks mean
// disjoint shards exactly.
func maskBit(pg int64) uint64 { return 1 << (uint64(pg) & (epochShards - 1)) }

// foot returns the footprint cell for (tid, pc), growing the tables.
func (cl *conflictLearner) foot(tid, pc int) *pcFoot {
	for tid >= len(cl.foots) {
		cl.foots = append(cl.foots, nil)
	}
	row := cl.foots[tid]
	for pc >= len(row) {
		row = append(row, pcFoot{})
	}
	cl.foots[tid] = row
	return &row[pc]
}

// verify checks one event page against the instruction's learned
// footprint, learning on miss. It returns the footprint's current
// conflict-mask contribution and whether the PC is wide.
func (cl *conflictLearner) verify(tid, pc int, pg int64) (mask uint64, wide bool) {
	f := cl.foot(tid, pc)
	if f.n == pcWide {
		return 0, true
	}
	if !f.has(pg) {
		cl.stats.VerifyMisses++
		if f.n == footPages {
			f.n = pcWide
			cl.stats.WidePCs++
			return 0, true
		}
		f.pages[f.n] = pg
		f.n++
		f.mask |= maskBit(pg)
	}
	return f.mask, false
}

// planKind classifies a window.
type planKind uint8

const (
	planParallel planKind = iota // one owner per group, no address scan needed
	planOrdered                  // true conflict: sequential Seq-ordered merge
)

// windowPlan is the analysis result: how to propagate the window.
type windowPlan struct {
	kind planKind
	// groups lists, per owner, the chain indices it propagates (in
	// window order). masks[i] is group i's conflict mask, used to
	// claim shards. Valid only for planParallel.
	groups [][]int
	masks  []uint64
}

// analyze classifies one multi-chain window.
//
// Fast path: walk each chain once, verifying every memory access
// against its instruction's learned footprint and accumulating the
// chain's conflict mask from the learned (superset) footprints. If no
// chain contains a wide PC and the masks are pairwise disjoint, the
// chains provably touch disjoint shards — propagate in parallel, one
// owner per chain, no further analysis.
//
// Otherwise fall back to the precise address-level scan: build exact
// read/write sets; a write/write or write/read overlap between chains
// is a true conflict (ordered merge), and address-disjoint chains
// that merely share a shard are fused into one ownership group so the
// single-writer-per-shard invariant holds without locks.
func (cl *conflictLearner) analyze(chains [][]*vm.Batch) windowPlan {
	cl.stats.Windows++
	masks := cl.masks[:0]
	wides := cl.wide[:0]
	anyWide := false
	for _, ch := range chains {
		var m uint64
		w := false
		for _, b := range ch {
			tid := b.TID
			for i := range b.Events {
				ev := &b.Events[i]
				// Pages touched: loads read SrcMem, stores/flags write
				// DstMem, CAS reads and writes the same address.
				var addr int64
				switch ev.Kind {
				case vm.EvLoad, vm.EvCas:
					addr = ev.SrcMem
				case vm.EvStore, vm.EvFlag:
					addr = ev.DstMem
				default:
					continue
				}
				if addr == vm.NoAddr {
					continue
				}
				fm, fw := cl.verify(tid, ev.PC, addr>>shadow.PageBits)
				if fw {
					w = true
				}
				m |= fm
			}
		}
		masks = append(masks, m)
		wides = append(wides, w)
		anyWide = anyWide || w
	}
	cl.masks, cl.wide = masks, wides

	if !anyWide && pairwiseDisjoint(masks) {
		cl.stats.FastParallel++
		idx := cl.idxBuf[:0]
		for i := range chains {
			idx = append(idx, i)
		}
		cl.idxBuf = idx
		groups := cl.groupsBuf[:0]
		for i := range chains {
			groups = append(groups, idx[i:i+1])
		}
		cl.groupsBuf = groups
		return windowPlan{kind: planParallel, groups: groups, masks: masks}
	}
	return cl.precise(chains)
}

// pairwiseDisjoint reports whether no two masks share a bit.
func pairwiseDisjoint(masks []uint64) bool {
	var seen uint64
	for _, m := range masks {
		if seen&m != 0 {
			return false
		}
		seen |= m
	}
	return true
}

// precise is the exact fallback: address-level read/write sets decide
// ordered vs. parallel, and the actual (not learned) masks drive the
// shard-ownership grouping.
func (cl *conflictLearner) precise(chains [][]*vm.Batch) windowPlan {
	cl.stats.PreciseScans++
	accs := make([]access, len(chains))
	for i, ch := range chains {
		accs[i] = chainAccess(ch)
	}
	for i := range accs {
		for j := i + 1; j < len(accs); j++ {
			if overlaps(accs[i].writes, accs[j].writes) ||
				overlaps(accs[i].writes, accs[j].reads) ||
				overlaps(accs[j].writes, accs[i].reads) {
				cl.stats.OrderedMerges++
				return windowPlan{kind: planOrdered}
			}
		}
	}
	// Address-disjoint. Fuse chains whose actual footprints share a
	// conflict-mask bit into one ownership group (a tiny DSU: group[i]
	// is chain i's parent).
	masks := cl.masks[:0]
	for i := range accs {
		var m uint64
		for a := range accs[i].reads {
			m |= maskBit(a >> shadow.PageBits)
		}
		for a := range accs[i].writes {
			m |= maskBit(a >> shadow.PageBits)
		}
		masks = append(masks, m)
	}
	cl.masks = masks
	parent := cl.group[:0]
	for i := range chains {
		parent = append(parent, i)
	}
	cl.group = parent
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if masks[i]&masks[j] != 0 {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}
	groupIdx := make(map[int]int, len(chains))
	var groups [][]int
	var gmasks []uint64
	fused := false
	for i := range chains {
		r := find(i)
		g, ok := groupIdx[r]
		if !ok {
			g = len(groups)
			groupIdx[r] = g
			groups = append(groups, nil)
			gmasks = append(gmasks, 0)
		}
		groups[g] = append(groups[g], i)
		gmasks[g] |= masks[i]
		if len(groups[g]) > 1 {
			fused = true
		}
	}
	if fused {
		cl.stats.GroupedParallel++
	}
	return windowPlan{kind: planParallel, groups: groups, masks: gmasks}
}
