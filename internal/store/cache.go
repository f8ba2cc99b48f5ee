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

// ChunkCache holds decoded chunks, and memory readers derive from them
// (Reader.Hold), for any number of Readers under one byte budget. A
// query.Registry makes one and hands it to every reader it opens, so
// the fleet's resident decoded chunks and reverse indexes are bounded
// as a whole; a Reader opened without one gets a private cache of
// DefaultCacheBytes.
//
// A hit never takes the cache's lock: each thread of each reader keeps
// its resident chunks in a map under its own mutex (threadState.mu),
// and counts its own hits and misses. The cache lock is taken on a
// miss, to admit the loaded chunk and evict the oldest admitted
// entries until it fits, on a Hold, and when a reader closes or a
// retention prune rewrites a thread's index. Evicted chunks leave
// their owner's map, and evicted holds are dropped, after every lock
// is released. Lock order: a thread's mutex, then its reader's, then
// the cache's, never the reverse.
type ChunkCache struct {
	budget int64

	mu     sync.Mutex
	fifo   cacheEntry // sentinel of the admission order: fifo.next is the oldest entry
	bytes  int64
	owners map[*threadState]bool // open reader threads, whose lookups Stats sums
	// Lookups of threads that have since closed, and evictions.
	hits, misses, evictions int64
}

// cacheEntry is one resident entry: a decoded chunk, owner.cache[idx],
// or bytes a reader holds, a member of holds.
type cacheEntry struct {
	owner      *threadState
	idx        int
	d          *ddg.Decoded
	holds      holdSet // a held entry's set; nil for a chunk
	drop       func()  // a held entry's holder lets go of its memory
	size       int64
	prev, next *cacheEntry // admission order (ChunkCache.mu); nil once out of it
}

// holdSet is one reader's held entries. ChunkCache.mu guards it, so an
// eviction takes an entry out of its set in the same step that takes
// it out of the admission order.
type holdSet map[*cacheEntry]bool

// NewChunkCache returns an empty cache holding at most budget bytes of
// decoded chunks and holds (budget <= 0 selects DefaultCacheBytes).
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
// (Misses), and the entries evicted to stay within the budget. Lookups
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
// the entries evicted to make room (see push). A chunk larger than the
// whole budget, or one a closed reader loaded, is not admitted.
func (c *ChunkCache) admit(ts *threadState, idx int, d *ddg.Decoded) (victims []*cacheEntry) {
	size := int64(d.Bytes())
	if ts.closed || size > c.budget {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{owner: ts, idx: idx, d: d, size: size}
	if ts.cache == nil {
		ts.cache = make(map[int]*cacheEntry)
	}
	ts.cache[idx] = e
	return c.push(e)
}

// hold charges size bytes to the cache as a member of hs, evicting the
// oldest entries to make room, and returns the function that lets them
// go early. drop runs once, with no lock held, when the entry leaves
// the cache by any path. Nothing is charged, and let is nil, when size
// exceeds the whole budget.
func (c *ChunkCache) hold(hs holdSet, size int64, drop func()) (let func(), victims []*cacheEntry) {
	if size > c.budget {
		return nil, nil
	}
	e := &cacheEntry{holds: hs, drop: drop, size: size}
	c.mu.Lock()
	hs[e] = true
	victims = c.push(e)
	c.mu.Unlock()
	return func() { c.let(e) }, victims
}

// push appends e to the admission order (c.mu held) and evicts the
// oldest entries until the bytes resident fit the budget. Chunk
// victims come back still in their owners' maps, for release.
func (c *ChunkCache) push(e *cacheEntry) (victims []*cacheEntry) {
	for c.bytes+e.size > c.budget {
		v := c.fifo.next
		c.unlink(v)
		c.evictions++
		victims = append(victims, v)
	}
	e.prev, e.next = c.fifo.prev, &c.fifo
	e.prev.next, c.fifo.prev = e, e
	c.bytes += e.size
	return victims
}

// unlink takes e out of the admission order, the byte count and, for a
// held entry, its hold set (c.mu held).
func (c *ChunkCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.bytes -= e.size
	delete(e.holds, e)
}

// let releases the held entry e unless it has left the cache already.
func (c *ChunkCache) let(e *cacheEntry) {
	c.mu.Lock()
	resident := e.next != nil
	if resident {
		c.unlink(e)
	}
	c.mu.Unlock()
	if resident {
		e.drop()
	}
}

// dropHolds releases every entry in hs: its reader closed, or the
// contents its holds were derived from changed.
func (c *ChunkCache) dropHolds(hs holdSet) {
	c.mu.Lock()
	dropped := make([]*cacheEntry, 0, len(hs))
	for e := range hs {
		c.unlink(e)
		dropped = append(dropped, e)
	}
	c.mu.Unlock()
	release(dropped)
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

// release finishes taking entries out of the cache. It runs with no
// lock held: a held entry's holder drops it, and a chunk leaves its
// owner's map under the owner's mutex, unless the owner has since
// dropped it.
func release(victims []*cacheEntry) {
	for _, v := range victims {
		if v.holds != nil {
			v.drop()
			continue
		}
		ts := v.owner
		ts.mu.Lock()
		if ts.cache[v.idx] == v {
			delete(ts.cache, v.idx)
		}
		ts.mu.Unlock()
	}
}
