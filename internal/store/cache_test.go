package store

import (
	"bytes"
	"slices"
	"testing"

	"scaldift/internal/ddg"
)

// decodedOf returns a freshly decoded chunk of k records for thread
// tid: 3k body bytes and a 16k-byte index, so k sets its cache size.
func decodedOf(tb testing.TB, tid, k int) *ddg.Decoded {
	buf := make([]byte, 0, 3*k)
	for i := 0; i < k; i++ {
		buf = append(buf, byte(min(i, 1)), 5, 0) // n+1 at PC 5, no dependence
	}
	d, err := ddg.RawChunk{TID: tid, BaseN: 1, Count: k, Buf: buf}.Decode()
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// cacheKey names one chunk of one reader thread.
type cacheKey struct {
	owner *threadState
	idx   int
}

// FuzzChunkCache drives one ChunkCache shared by three readers, each
// with one thread and one hold set, through random loads (each read
// against the owner's index epoch and landing later), lookups, prunes
// (a retention trim rewriting the owner's index), holds, early
// releases and reader closes, against a model: the map of chunks each
// (owner, index) loaded in the owner's current epoch, the admission
// order of every entry and a byte counter. After every step the bytes
// resident stay within the budget and equal what the resident entries
// hold; the admission order is the previous one minus what the step
// took out, evicted oldest first, chunks and holds alike, plus at most
// the one entry it admitted; every resident entry is in its owner's map
// or hold set, no closed reader keeps one, and a hold's drop has run
// exactly when it is no longer resident; the hits and misses counted
// equal the lookups' outcomes; and a lookup returns only a chunk its
// own owner loaded at that index in its current epoch — never another
// owner's, never one from before a prune.
func FuzzChunkCache(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 1, 0, 0, 0, 2, 0, 1, 0}, uint16(600))
	f.Add([]byte{0, 1, 2, 9, 0, 2, 2, 9, 3, 1, 2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 1, 2, 0}, uint16(300))
	f.Add(bytes.Repeat([]byte{0, 7, 3, 20, 1, 1, 1, 1, 2, 7, 3, 0, 5, 2, 4, 0}, 30), uint16(2000))
	// Holds and chunks evicting each other, an early release, and a
	// close dropping a reader's hold.
	f.Add([]byte{5, 0, 1, 0, 5, 1, 2, 0, 0, 0, 0, 23, 1, 0, 0, 5, 0, 3, 0, 6, 0, 0, 4, 1, 0, 5, 2, 5, 0, 2, 0, 0}, uint16(1500))
	f.Fuzz(func(t *testing.T, ops []byte, budget uint16) {
		c := NewChunkCache(1 + int64(budget))
		owners := []*threadState{{tid: 0}, {tid: 1}, {tid: 2}}
		holds := []holdSet{{}, {}, {}}
		for _, ts := range owners {
			c.register(ts)
		}
		var hits, misses int64
		loaded := make(map[cacheKey]map[*ddg.Decoded]bool)
		forget := func(ts *threadState) {
			for k := range loaded {
				if k.owner == ts {
					delete(loaded, k)
				}
			}
		}
		type load struct {
			cacheKey
			epoch int
			d     *ddg.Decoded
		}
		var inflight []load
		// Every hold asked for: the entry it made (nil if refused), its
		// early release, and how many times its drop ran.
		type holding struct {
			e     *cacheEntry
			let   func()
			drops int
		}
		var holdings, admitted []*holding
		var order []*cacheEntry // admission order after the last step
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			op, slot := next()%7, next()%len(owners)
			ts := owners[slot]
			k := cacheKey{ts, next() % 8}
			gone := make(map[*cacheEntry]bool) // what the step takes out by name
			ts.mu.Lock()
			for _, e := range ts.cache {
				if op == 3 || op == 4 {
					gone[e] = true
				}
			}
			ts.mu.Unlock()
			switch op {
			case 0: // a loader snapshots the index; its chunk lands later
				ts.mu.Lock()
				epoch := ts.epoch
				ts.mu.Unlock()
				inflight = append(inflight, load{k, epoch, decodedOf(t, ts.tid, 1+next()%24)})
			case 1: // the oldest load in flight lands
				if len(inflight) == 0 {
					continue
				}
				ld := inflight[0]
				inflight = inflight[1:]
				if ld.epoch == ld.owner.epoch {
					if loaded[ld.cacheKey] == nil {
						loaded[ld.cacheKey] = make(map[*ddg.Decoded]bool)
					}
					loaded[ld.cacheKey][ld.d] = true
				}
				if got := c.fill(ld.owner, ld.idx, ld.epoch, ld.d); got != ld.d && !loaded[ld.cacheKey][got] {
					t.Fatalf("fill of (%d,%d) served a chunk nobody loaded there this epoch", ld.owner.tid, ld.idx)
				}
			case 2: // lookup
				ts.mu.Lock()
				d := c.get(ts, k.idx)
				ts.mu.Unlock()
				if d != nil && !loaded[k][d] {
					t.Fatalf("lookup of (%d,%d) served another owner's or a pruned epoch's chunk", ts.tid, k.idx)
				}
				if d != nil {
					hits++
				} else {
					misses++
				}
			case 3: // a retention prune rewrites the owner's index
				ts.mu.Lock()
				ts.reindexed(c)
				ts.mu.Unlock()
				forget(ts)
			case 4: // the reader closes; a fresh one takes its slot
				c.mu.Lock()
				for e := range holds[slot] {
					gone[e] = true
				}
				c.mu.Unlock()
				ts.mu.Lock()
				ts.closed = true
				c.drop(ts)
				ts.mu.Unlock()
				c.dropHolds(holds[slot])
				forget(ts)
				c.mu.Lock()
				left := len(holds[slot])
				c.mu.Unlock()
				if left != 0 {
					t.Fatalf("a closed reader's hold set keeps %d entries", left)
				}
				owners[slot] = &threadState{tid: ts.tid}
				c.register(owners[slot])
				holds[slot] = holdSet{}
			case 5: // the reader holds derived bytes
				h := &holding{}
				holdings = append(holdings, h)
				size := int64(1 + k.idx*257 + next()%256)
				let, victims := c.hold(holds[slot], size, func() { h.drops++ })
				if let == nil {
					if size <= c.budget {
						t.Fatalf("a %d-byte hold under a %d-byte budget was refused", size, c.budget)
					}
					break
				}
				release(victims)
				c.mu.Lock()
				h.e, h.let = c.fifo.prev, let
				c.mu.Unlock()
				admitted = append(admitted, h)
			case 6: // a holder lets its bytes go early
				if len(admitted) == 0 {
					continue
				}
				h := admitted[k.idx%len(admitted)]
				gone[h.e] = true
				h.let()
				h.let() // a second release is a no-op
			}
			order = checkOrder(t, c, order, gone)
			checkCache(t, c, owners, holds, loaded)
			c.mu.Lock()
			for i, h := range holdings {
				want := 0
				if h.e != nil && h.e.next == nil {
					want = 1 // evicted, released, or its reader closed
				}
				if h.drops != want {
					t.Fatalf("hold %d (admitted %v, resident %v) dropped %d times", i, h.e != nil, h.e != nil && h.e.next != nil, h.drops)
				}
			}
			c.mu.Unlock()
			if st := c.Stats(); st.Hits != hits || st.Misses != misses {
				t.Fatalf("stats count %d hits / %d misses, lookups made %d / %d", st.Hits, st.Misses, hits, misses)
			}
		}
	})
}

// checkOrder holds the cache's admission order to prev, the order
// before one step, and returns it. The step took out the entries in
// gone by name; what else left must be the oldest of the rest, and
// only an admission, at the tail, may have pushed it out.
func checkOrder(t *testing.T, c *ChunkCache, prev []*cacheEntry, gone map[*cacheEntry]bool) []*cacheEntry {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur []*cacheEntry
	for e := c.fifo.next; e != &c.fifo; e = e.next {
		cur = append(cur, e)
	}
	var kept []*cacheEntry
	for _, e := range prev {
		if !gone[e] {
			kept = append(kept, e)
		}
	}
	admitted := len(cur) > 0 && !slices.Contains(prev, cur[len(cur)-1])
	old := cur
	if admitted {
		old = cur[:len(cur)-1]
	}
	evicted := len(kept) - len(old)
	if evicted < 0 || !slices.Equal(kept[evicted:], old) {
		t.Fatalf("admission order %d entries after a step; want a suffix of the %d kept, plus the one admitted", len(cur), len(kept))
	}
	if evicted > 0 && !admitted {
		t.Fatalf("%d entries left the cache with nothing admitted", evicted)
	}
	return cur
}

// checkCache holds the cache to the model (see FuzzChunkCache).
func checkCache(t *testing.T, c *ChunkCache, owners []*threadState, holds []holdSet, loaded map[cacheKey]map[*ddg.Decoded]bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	current := make(map[*cacheEntry]bool)
	for _, hs := range holds {
		for e := range hs {
			current[e] = true
		}
	}
	var model int64
	for e := c.fifo.next; e != &c.fifo; e = e.next {
		switch {
		case e.next.prev != e:
			t.Fatal("admission order broken")
		case e.holds != nil:
			if !current[e] {
				t.Fatal("a resident hold is in no open reader's hold set")
			}
			delete(current, e)
		case e.owner.closed:
			t.Fatalf("a closed reader's chunk (%d,%d) is resident", e.owner.tid, e.idx)
		case e.owner.cache[e.idx] != e:
			t.Fatalf("resident chunk (%d,%d) is missing from its owner's map", e.owner.tid, e.idx)
		case !loaded[cacheKey{e.owner, e.idx}][e.d]:
			t.Fatalf("resident chunk (%d,%d) was not loaded there this epoch", e.owner.tid, e.idx)
		}
		model += e.size
	}
	if len(current) != 0 {
		t.Fatalf("%d held entries are in a hold set but not resident", len(current))
	}
	if model != c.bytes {
		t.Fatalf("cache counts %d bytes, resident entries hold %d", c.bytes, model)
	}
	if c.bytes > c.budget {
		t.Fatalf("%d bytes resident over a %d-byte budget", c.bytes, c.budget)
	}
	for _, ts := range owners {
		for idx, e := range ts.cache {
			if e.next == nil {
				t.Fatalf("(%d,%d) stayed in its owner's map after eviction", ts.tid, idx)
			}
		}
	}
}

// TestChunkCacheEvictsOldestFirst: eviction follows admission order
// alone. A hit on the oldest chunk does not save it; evicted chunks
// leave their owner's map, and the survivors stay servable.
func TestChunkCacheEvictsOldestFirst(t *testing.T) {
	ds := []*ddg.Decoded{decodedOf(t, 0, 4), decodedOf(t, 0, 4), decodedOf(t, 0, 4), decodedOf(t, 0, 4)}
	c := NewChunkCache(int64(3 * ds[0].Bytes()))
	ts := &threadState{}
	c.register(ts)
	lookup := func(idx int) *ddg.Decoded {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		return c.get(ts, idx)
	}
	for idx, d := range ds[:3] {
		c.fill(ts, idx, 0, d)
	}
	if lookup(0) != ds[0] {
		t.Fatal("chunk 0 not resident before the cache is full")
	}
	c.fill(ts, 3, 0, ds[3])
	if lookup(0) != nil {
		t.Fatal("a hit kept the oldest chunk resident past a full cache")
	}
	for idx := 1; idx < 4; idx++ {
		if lookup(idx) != ds[idx] {
			t.Fatalf("chunk %d evicted; want only the oldest gone", idx)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("stats %+v; want 1 eviction, 4 hits, 1 miss", st)
	}
}
