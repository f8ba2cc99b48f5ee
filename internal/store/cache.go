package store

import (
	"sync"

	"scaldift/internal/ddg"
)

// DefaultCacheBytes is the budget of a ChunkCache made without one.
// A decoded chunk costs its wire bytes plus 16 bytes per record
// (ddg.Decoded.Bytes), so 64 MiB keeps several multi-million-
// instruction traces resident at once: each of bench's workloads
// decodes to 2–7 MB.
const DefaultCacheBytes = 64 << 20

// maxNegatives bounds each thread's set of known-damaged chunks. A
// negative costs a map slot, not a decoded chunk, so the bound is
// small, fixed, and independent of any cache budget.
const maxNegatives = 8

// ChunkCache holds decoded chunks for any number of Readers under one
// byte budget. A query.Registry makes one and hands it to every reader
// it opens, so the fleet's resident decoded chunks are bounded as a
// whole; a Reader opened without one gets a private cache of
// DefaultCacheBytes.
//
// A hit never takes the cache's lock: each thread of each reader keeps
// its resident chunks in a map under its own mutex (threadState.mu),
// and counts its own hits and misses. The cache lock is taken on a
// miss, to admit the loaded chunk and evict the oldest admitted chunks
// until it fits, and when a reader closes or a retention prune
// rewrites a thread's index. Victims leave their owner's map after
// every lock is released. Lock order: a reader's mutex or a thread's,
// then the cache's, never the reverse.
type ChunkCache struct {
	budget int64

	mu     sync.Mutex
	fifo   cacheEntry // sentinel of the admission order: fifo.next is the oldest entry
	bytes  int64
	owners map[*threadState]bool // open reader threads, whose lookups Stats sums
	// Lookups of threads that have since closed, and evictions.
	hits, misses, evictions int64
}

// cacheEntry is one resident decoded chunk, owner.cache[idx].
type cacheEntry struct {
	owner      *threadState
	idx        int
	d          *ddg.Decoded
	size       int64
	prev, next *cacheEntry // admission order (ChunkCache.mu); nil once out of it
}

// NewChunkCache returns an empty cache holding at most budget bytes of
// decoded chunks (budget <= 0 selects DefaultCacheBytes).
func NewChunkCache(budget int64) *ChunkCache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	c := &ChunkCache{budget: budget, owners: make(map[*threadState]bool)}
	c.fifo.prev, c.fifo.next = &c.fifo, &c.fifo
	return c
}

// CacheStats is a snapshot of a ChunkCache: the bytes resident against
// the budget, chunk lookups served from the cache (Hits) and not
// (Misses), and the chunks evicted to stay within the budget. Lookups
// a reader makes after its Close are not counted.
type CacheStats struct {
	Bytes, Budget, Hits, Misses, Evictions int64
}

// Stats snapshots the cache's counters.
func (c *ChunkCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Bytes: c.bytes, Budget: c.budget, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
	for ts := range c.owners {
		s.Hits += ts.hits.Load()
		s.Misses += ts.misses.Load()
	}
	return s
}

// register makes ts, a new thread of an open reader, one whose lookups
// Stats counts until the reader closes.
func (c *ChunkCache) register(ts *threadState) {
	c.mu.Lock()
	c.owners[ts] = true
	c.mu.Unlock()
}

// get returns ts's resident chunk idx, or nil (ts.mu held). The lookup
// is counted on ts, so concurrent lookups on different threads share
// no counter.
func (c *ChunkCache) get(ts *threadState, idx int) *ddg.Decoded {
	e := ts.cache[idx]
	if e == nil {
		ts.misses.Add(1)
		return nil
	}
	ts.hits.Add(1)
	return e.d
}

// fill caches d, just loaded as ts's chunk idx by a loader that read
// the index at epoch, and returns the copy to serve: the resident one
// when another loader got there first. A prune since epoch means idx
// may name another chunk now, so d then goes to its loader uncached.
func (c *ChunkCache) fill(ts *threadState, idx, epoch int, d *ddg.Decoded) *ddg.Decoded {
	var victims []*cacheEntry
	ts.mu.Lock()
	if ts.epoch == epoch {
		if e := ts.cache[idx]; e != nil {
			d = e.d
		} else {
			victims = c.admit(ts, idx, d)
		}
	}
	ts.mu.Unlock()
	release(victims)
	return d
}

// admit makes d resident as ts's chunk idx (ts.mu held) and returns
// the entries evicted to make room, oldest first, still in their
// owners' maps. A chunk larger than the whole budget, or one a closed
// reader loaded, is not admitted.
func (c *ChunkCache) admit(ts *threadState, idx int, d *ddg.Decoded) (victims []*cacheEntry) {
	size := int64(d.Bytes())
	if ts.closed || size > c.budget {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.bytes+size > c.budget {
		v := c.fifo.next
		c.unlink(v)
		c.evictions++
		victims = append(victims, v)
	}
	e := &cacheEntry{owner: ts, idx: idx, d: d, size: size, prev: c.fifo.prev, next: &c.fifo}
	e.prev.next, c.fifo.prev = e, e
	c.bytes += size
	if ts.cache == nil {
		ts.cache = make(map[int]*cacheEntry)
	}
	ts.cache[idx] = e
	return victims
}

// unlink takes e out of the admission order and the byte count (c.mu
// held).
func (c *ChunkCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.bytes -= e.size
}

// drop releases every chunk ts holds (ts.mu held): a retention prune
// empties the map whose indexes it is about to rewrite, and a closing
// reader frees its bytes. A closed ts also stops being an owner: its
// lookups move into the cache's totals.
func (c *ChunkCache) drop(ts *threadState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range ts.cache {
		if e.next != nil {
			c.unlink(e)
		}
	}
	ts.cache = nil
	if ts.closed && c.owners[ts] {
		delete(c.owners, ts)
		c.hits += ts.hits.Load()
		c.misses += ts.misses.Load()
	}
}

// release removes evicted entries from their owners' maps. It runs
// with no lock held and takes each owner's mutex in turn; an entry its
// owner has since dropped is left alone.
func release(victims []*cacheEntry) {
	for _, v := range victims {
		ts := v.owner
		ts.mu.Lock()
		if ts.cache[v.idx] == v {
			delete(ts.cache, v.idx)
		}
		ts.mu.Unlock()
	}
}
