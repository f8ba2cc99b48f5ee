package query

import (
	"sync"

	"scaldift/internal/ddg"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// revCache holds the reverse index forward queries walk over a closed
// trace: one slot, built through the query's view of the reader
// (reconstructing when a program is attached). The cached index is
// charged to the reader's chunk cache (store.Reader.Hold) and leaves
// its slot when the cache lets it go — on eviction, on a trim's new
// generation, or when the reader closes — so the one cache budget
// bounds the index too.
type revCache struct {
	mu   sync.Mutex
	slot *revEntry
}

// revEntry is one cached index and the key it was built under: the
// manifest generation and the program attachment (an attach changes
// what reconstruction yields without bumping the generation).
type revEntry struct {
	gen, attach uint64
	rev         *slicing.Reverse
	release     func() // gives the index's bytes back to the chunk cache
	dropped     bool   // the chunk cache let it go (revCache.mu)
}

// bytes returns the resident size of the cached index.
func (c *revCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slot == nil {
		return 0
	}
	return c.slot.rev.Bytes()
}

// forget takes e out of the slot: the chunk cache let it go.
func (c *revCache) forget(e *revEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.dropped = true
	if c.slot == e {
		c.slot = nil
	}
}

// reverse returns the reverse index a forward query walks over src,
// the query's own (budgeted) view of the trace's reader. A closed
// trace serves an index cached under (gen, attach), building it
// through src on a miss; a live trace grows between polls without a
// generation bump, so it builds a fresh one per query. An index the
// budget or done cut short, or one larger than the whole chunk-cache
// budget, is never cached. Concurrent cold misses each build, and the
// last to publish wins — the same idiom as the reader's chunk loads:
// nobody waits on another query's build. Nil means done fired
// mid-build.
func (t *Trace) reverse(src ddg.Source, live bool, gen, attach uint64, b *store.Budget, done <-chan struct{}) *slicing.Reverse {
	c := &t.revs
	if !live {
		c.mu.Lock()
		e := c.slot
		c.mu.Unlock()
		if e != nil && e.gen == gen && e.attach == attach {
			t.stats.revHits.Add(1)
			return e.rev
		}
	}
	rev := slicing.BuildReverse(src, done)
	t.stats.revBuilds.Add(1)
	if live || rev == nil || b.Exhausted() {
		return rev
	}
	mine := &revEntry{gen: gen, attach: attach, rev: rev}
	mine.release = t.reader.Hold(rev.Bytes(), func() { c.forget(mine) })
	if mine.release == nil {
		return rev
	}
	// The cache may have let mine go already; it must not then enter
	// the slot, where nothing would bound it.
	c.mu.Lock()
	old := c.slot
	if mine.dropped {
		old = nil
	} else {
		c.slot = mine
	}
	c.mu.Unlock()
	if old != nil {
		old.release()
	}
	return rev
}
