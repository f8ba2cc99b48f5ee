package ddg

import (
	"fmt"
	"testing"
)

// Regression tests for Compact behavior at exact chunk seams: records
// whose encoding straddles the chunkSize threshold, singleton chunks
// (baseN == lastN), and Window/eviction right at chunk boundaries.
// These boundaries were previously untested; the persistent store
// spills whole chunks, so their geometry is now load-bearing.

// bigRecord returns a dep list whose encoding is guaranteed to exceed
// small chunk sizes (7 data deps is the flag field's maximum).
func bigRecord(use ID, pc int32) []Dep {
	var deps []Dep
	for i := 0; i < 7; i++ {
		deps = append(deps, Dep{Use: use, UsePC: pc,
			Def: MakeID(use.TID(), use.N()-uint64(i)-1), DefPC: int32(1000 + i), Kind: Data})
	}
	return deps
}

// TestCompactSingletonChunk: a record larger than chunkSize seals a
// one-record chunk immediately, with baseN == lastN.
func TestCompactSingletonChunk(t *testing.T) {
	c := NewCompactSized(0, 8) // any record overflows 8 bytes
	use := MakeID(0, 10)
	c.Append(use, 5, bigRecord(use, 5), 0)

	lo, hi := c.Window(0)
	if lo != 10 || hi != 10 {
		t.Fatalf("window = [%d,%d], want [10,10]", lo, hi)
	}
	got := CountDeps(c, use)
	if len(got) != 7 {
		t.Fatalf("deps = %d, want 7", len(got))
	}
	// The chunk is sealed: the next record must start a fresh chunk
	// with its own base, and both stay readable.
	use2 := MakeID(0, 11)
	c.Append(use2, 6, bigRecord(use2, 6), 0)
	if got := CountDeps(c, use2); len(got) != 7 {
		t.Fatalf("second singleton: %d deps", len(got))
	}
	if got := CountDeps(c, use); len(got) != 7 {
		t.Fatalf("first singleton lost after seal: %d deps", len(got))
	}
	lo, hi = c.Window(0)
	if lo != 10 || hi != 11 {
		t.Fatalf("window = [%d,%d], want [10,11]", lo, hi)
	}
}

// TestCompactRecordStraddlesChunkSize: a chunk seals only after the
// append that crosses chunkSize, so the straddling record lands
// entirely in the sealing chunk — never split, never duplicated.
func TestCompactRecordStraddlesChunkSize(t *testing.T) {
	const chunkSize = 32
	c := NewCompactSized(0, chunkSize)
	type rec struct {
		use  ID
		deps []Dep
	}
	var recs []rec
	// Small records until just under the threshold, then one big
	// record that straddles it.
	n := uint64(1)
	for c.CurrentBytes() < chunkSize-2 {
		use := MakeID(0, n)
		deps := []Dep{{Use: use, UsePC: 3, Def: MakeID(1, 7), DefPC: 4, Kind: Data}}
		c.Append(use, 3, deps, 0)
		recs = append(recs, rec{use, deps})
		n++
	}
	use := MakeID(0, n)
	deps := bigRecord(use, 9)
	c.Append(use, 9, deps, 0)
	recs = append(recs, rec{use, deps})
	n++
	// And one more record, landing in the next chunk.
	use2 := MakeID(0, n)
	deps2 := []Dep{{Use: use2, UsePC: 4, Def: MakeID(0, 1), DefPC: 3, Kind: Data}}
	c.Append(use2, 4, deps2, 0)
	recs = append(recs, rec{use2, deps2})

	for _, r := range recs {
		got := CountDeps(c, r.use)
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", r.deps) {
			t.Fatalf("record %v:\nwant %+v\ngot  %+v", r.use, r.deps, got)
		}
	}
	lo, hi := c.Window(0)
	if lo != 1 || hi != n {
		t.Fatalf("window = [%d,%d], want [1,%d]", lo, hi, n)
	}
}

// TestCompactWindowAtEvictionSeam: evicting exactly the first chunk
// moves the window's lo to the second chunk's base, and lookups in
// the evicted range return nothing while the seam's survivor is
// intact.
func TestCompactWindowAtEvictionSeam(t *testing.T) {
	const chunkSize = 64
	// Fill chunk 1 exactly, note its last record, fill further.
	c := NewCompactSized(0, chunkSize)
	n := uint64(1)
	appendOne := func() ID {
		use := MakeID(0, n)
		c.Append(use, 3, []Dep{{Use: use, UsePC: 3, Def: MakeID(1, 9), DefPC: 2, Kind: Data}}, 0)
		n++
		return use
	}
	for !chunkSealed(c) {
		appendOne()
	}
	firstChunkLast := n - 1 // last record of the sealed first chunk
	secondChunkFirst := appendOne().N()

	// Shrink capacity so exactly the sealed chunk must go: capacity
	// below current retained bytes forces the evictor to drop sealed
	// chunks; only the open chunk survives.
	c.capBytes = 1
	c.evict()

	lo, hi := c.Window(0)
	if lo != secondChunkFirst {
		t.Fatalf("lo = %d, want second chunk base %d", lo, secondChunkFirst)
	}
	if hi != n-1 {
		t.Fatalf("hi = %d, want %d", hi, n-1)
	}
	if deps := CountDeps(c, MakeID(0, firstChunkLast)); deps != nil {
		t.Fatalf("evicted seam record still readable: %+v", deps)
	}
	if deps := CountDeps(c, MakeID(0, secondChunkFirst)); len(deps) != 1 {
		t.Fatalf("seam survivor unreadable: %+v", deps)
	}
	if c.EvictedChunks() != 1 {
		t.Fatalf("evicted %d chunks, want 1", c.EvictedChunks())
	}
}

// chunkSealed reports whether any chunk of the store is sealed
// (test-only peek).
func chunkSealed(c *Compact) bool {
	for _, ch := range c.order {
		if ch.sealed {
			return true
		}
	}
	return false
}

// TestCompactSealFlushSpill: Flush seals open chunks exactly once
// into the sink, spilled chunk metadata matches the retained
// encoding, and appends after Flush start fresh chunks that spill on
// their own seal.
func TestCompactSealFlushSpill(t *testing.T) {
	var sink collectSink
	c := NewCompactSized(0, 64)
	c.SetSpill(&sink)
	n := uint64(1)
	for i := 0; i < 40; i++ {
		use := MakeID(0, n)
		c.Append(use, 3, []Dep{{Use: use, UsePC: 3, Def: MakeID(1, 9), DefPC: 2, Kind: Data}}, 0)
		n++
	}
	sealed := len(sink.chunks)
	if sealed == 0 {
		t.Fatal("no chunk sealed during appends")
	}
	c.Flush()
	if len(sink.chunks) != sealed+1 {
		t.Fatalf("flush spilled %d chunks, want 1", len(sink.chunks)-sealed)
	}
	c.Flush() // idempotent: nothing open
	if len(sink.chunks) != sealed+1 {
		t.Fatal("second Flush re-spilled")
	}
	if c.SpilledChunks() != uint64(len(sink.chunks)) {
		t.Fatalf("SpilledChunks = %d, sink has %d", c.SpilledChunks(), len(sink.chunks))
	}

	// The spilled stream must decode to exactly the same records the
	// in-memory store serves, and cover the whole window contiguously.
	var total int
	prevLast := uint64(0)
	for i, rc := range sink.chunks {
		if rc.TID != 0 || rc.Count <= 0 || rc.BaseN > rc.LastN {
			t.Fatalf("chunk %d: bad meta %+v", i, rc)
		}
		if rc.BaseN <= prevLast {
			t.Fatalf("chunk %d overlaps predecessor", i)
		}
		prevLast = rc.LastN
		d, err := rc.Decode()
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		total += len(d.recs)
		d.Records(func(useN uint64, _ int32, deps []Dep, _ uint64) {
			got := CountDeps(c, MakeID(0, useN))
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", deps) {
				t.Fatalf("record %d diverged between memory and spill", useN)
			}
		})
	}
	if total != 40 {
		t.Fatalf("spilled stream has %d records, want 40", total)
	}

	// Post-Flush appends open a fresh chunk and spill again on seal.
	// Cross-thread defs encode as wide absolute varints, so 7 of them
	// overflow the 64-byte chunk and seal it immediately.
	use := MakeID(0, n)
	var wide []Dep
	for i := 0; i < 7; i++ {
		wide = append(wide, Dep{Use: use, UsePC: 9,
			Def: MakeID(40+i, 1<<40), DefPC: int32(2000 + i), Kind: Data})
	}
	c.Append(use, 9, wide, 0)
	if c.SpilledChunks() != uint64(sealed)+2 {
		t.Fatalf("post-flush append did not spill on seal: %d", c.SpilledChunks())
	}
}

// TestCompactOpenChunkNotStaleCached: querying an open chunk must
// not freeze its decode — records appended afterwards stay visible.
func TestCompactOpenChunkNotStaleCached(t *testing.T) {
	c := NewCompact(0) // large chunk: stays open throughout
	u1 := MakeID(0, 1)
	c.Append(u1, 3, []Dep{{Use: u1, UsePC: 3, Def: MakeID(1, 9), DefPC: 2, Kind: Data}}, 0)
	if got := CountDeps(c, u1); len(got) != 1 {
		t.Fatalf("first record: %+v", got)
	}
	// Decode above may have touched the cache; this append goes into
	// the same still-open chunk.
	u2 := MakeID(0, 2)
	c.Append(u2, 4, []Dep{{Use: u2, UsePC: 4, Def: u1, DefPC: 3, Kind: Data}}, 0)
	if got := CountDeps(c, u2); len(got) != 1 || got[0].Def != u1 {
		t.Fatalf("record appended after a query is invisible: %+v", got)
	}
}

// collectSink retains spilled chunks in order.
type collectSink struct{ chunks []RawChunk }

func (s *collectSink) SpillChunk(ch RawChunk) { s.chunks = append(s.chunks, ch) }
