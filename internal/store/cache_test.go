package store

import (
	"bytes"
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

// FuzzChunkCache drives one ChunkCache shared by three reader threads
// through random loads (each read against the owner's index epoch and
// landing later), lookups, prunes (a retention trim rewriting the
// owner's index) and reader closes, against a model: the map of chunks
// each (owner, index) loaded in the owner's current epoch plus a byte
// counter. After every step the bytes resident stay within the budget
// and equal what the resident entries hold, every resident entry is in
// its owner's map, no closed reader holds one, the hits and misses
// counted equal the lookups' outcomes, and a lookup returns only a
// chunk its own owner loaded at that index in its current epoch —
// never another owner's, never one from before a prune.
func FuzzChunkCache(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 1, 0, 0, 0, 2, 0, 1, 0}, uint16(600))
	f.Add([]byte{0, 1, 2, 9, 0, 2, 2, 9, 3, 1, 2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 1, 2, 0}, uint16(300))
	f.Add(bytes.Repeat([]byte{0, 7, 3, 20, 1, 1, 1, 1, 2, 7, 3, 0, 5, 2, 4, 0}, 30), uint16(2000))
	f.Fuzz(func(t *testing.T, ops []byte, budget uint16) {
		c := NewChunkCache(1 + int64(budget))
		owners := []*threadState{{tid: 0}, {tid: 1}, {tid: 2}}
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
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			op, slot := next()%5, next()%len(owners)
			ts := owners[slot]
			k := cacheKey{ts, next() % 8}
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
				ts.mu.Lock()
				ts.closed = true
				c.drop(ts)
				ts.mu.Unlock()
				forget(ts)
				owners[slot] = &threadState{tid: ts.tid}
				c.register(owners[slot])
			}
			checkCache(t, c, owners, loaded)
			if st := c.Stats(); st.Hits != hits || st.Misses != misses {
				t.Fatalf("stats count %d hits / %d misses, lookups made %d / %d", st.Hits, st.Misses, hits, misses)
			}
		}
	})
}

// checkCache holds the cache to the model (see FuzzChunkCache).
func checkCache(t *testing.T, c *ChunkCache, owners []*threadState, loaded map[cacheKey]map[*ddg.Decoded]bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var model int64
	for e := c.fifo.next; e != &c.fifo; e = e.next {
		switch {
		case e.next.prev != e:
			t.Fatalf("admission order broken after (%d,%d)", e.owner.tid, e.idx)
		case e.owner.closed:
			t.Fatalf("a closed reader's chunk (%d,%d) is resident", e.owner.tid, e.idx)
		case e.owner.cache[e.idx] != e:
			t.Fatalf("resident chunk (%d,%d) is missing from its owner's map", e.owner.tid, e.idx)
		case !loaded[cacheKey{e.owner, e.idx}][e.d]:
			t.Fatalf("resident chunk (%d,%d) was not loaded there this epoch", e.owner.tid, e.idx)
		}
		model += int64(e.d.Bytes())
	}
	if model != c.bytes {
		t.Fatalf("cache counts %d bytes, resident chunks hold %d", c.bytes, model)
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
