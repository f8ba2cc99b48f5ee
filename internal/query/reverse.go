package query

import (
	"sync"

	"scaldift/internal/ddg"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// revCache holds the reverse indexes forward queries walk over a
// closed trace's reader: one slot for the reconstructing view, one for
// the raw records (reconstruction adds edges, so the two differ). Each
// cached index is charged to the reader's chunk cache (store.Reader.Hold)
// and leaves its slot when the cache lets it go — on eviction, on a
// trim's new generation, or when the reader closes — so the one cache
// budget bounds the indexes too.
type revCache struct {
	mu    sync.Mutex
	slots [2]*revEntry // [raw]
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

// bytes returns the resident size of the cached indexes.
func (c *revCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, e := range c.slots {
		if e != nil {
			n += e.rev.Bytes()
		}
	}
	return n
}

// forget takes e out of slot i: the chunk cache let it go.
func (c *revCache) forget(i byte, e *revEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.dropped = true
	if c.slots[i] == e {
		c.slots[i] = nil
	}
}

// reverse returns the reverse index a forward query walks over src,
// the query's own (budgeted) view of the trace's reader. A closed
// trace serves an index cached under (gen, attach, raw), building it
// through src on a miss; a live trace grows between polls without a
// generation bump, so it builds a fresh one per query. An index the
// budget or done cut short, or one larger than the whole chunk-cache
// budget, is never cached. Concurrent cold misses each build, and the
// last to publish wins — the same idiom as the reader's chunk loads:
// nobody waits on another query's build. Nil means done fired
// mid-build.
func (t *Trace) reverse(src ddg.Source, live bool, gen, attach uint64, raw bool, b *store.Budget, done <-chan struct{}) *slicing.Reverse {
	c, i := &t.revs, b2b(raw)
	if !live {
		c.mu.Lock()
		e := c.slots[i]
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
	mine.release = t.reader.Hold(rev.Bytes(), func() { c.forget(i, mine) })
	if mine.release == nil {
		return rev
	}
	// The cache may have let mine go already; it must not then enter
	// the slot, where nothing would bound it.
	c.mu.Lock()
	old := c.slots[i]
	if mine.dropped {
		old = nil
	} else {
		c.slots[i] = mine
	}
	c.mu.Unlock()
	if old != nil {
		old.release()
	}
	return rev
}
