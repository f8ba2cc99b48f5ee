package query

import (
	"sync/atomic"

	"scaldift/internal/ddg"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// revCache holds the reverse indexes forward queries walk over one
// reader of a closed trace: one slot for the reconstructing view, one
// for the raw records (reconstruction adds edges, so the two differ).
// It belongs to the reader — acquire hands them out together and
// dropReader releases both — so refresh after a trim, eviction and
// deletion drop the indexes with the reader they were built from.
type revCache struct {
	slots [2]atomic.Pointer[revEntry] // [raw]
}

// revEntry is one cached index and the key it was built under: the
// manifest generation and the program attachment (an attach changes
// what reconstruction yields without bumping the generation).
type revEntry struct {
	gen, attach uint64
	rev         *slicing.Reverse
}

// bytes returns the resident size of the cached indexes. Nil-safe: an
// evicted trace holds none.
func (c *revCache) bytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil {
			n += e.rev.Bytes()
		}
	}
	return n
}

// reverse returns the reverse index a forward query walks over src,
// the query's own (budgeted) view of the reader c belongs to. A closed
// trace serves an index cached under (gen, attach, raw), building it
// through src on a miss; a live trace grows between polls without a
// generation bump, so it builds a fresh one per query. An index the
// budget or done cut short is never cached. Concurrent cold misses
// each build, and the first to publish wins — the same idiom as the
// reader's chunk loads: nobody waits on another query's build. Nil
// means done fired mid-build.
func (t *Trace) reverse(c *revCache, src ddg.Source, live bool, gen, attach uint64, raw bool, b *store.Budget, done <-chan struct{}) *slicing.Reverse {
	slot := &c.slots[b2b(raw)]
	matches := func(e *revEntry) bool { return e != nil && e.gen == gen && e.attach == attach }
	old := slot.Load()
	if !live && matches(old) {
		t.stats.revHits.Add(1)
		return old.rev
	}
	rev := slicing.BuildReverse(src, done)
	t.stats.revBuilds.Add(1)
	if live || rev == nil || b.Exhausted() {
		return rev
	}
	mine := &revEntry{gen: gen, attach: attach, rev: rev}
	for !slot.CompareAndSwap(old, mine) {
		if old = slot.Load(); matches(old) {
			return old.rev
		}
	}
	return rev
}
