package store

import (
	"os"
	"path/filepath"
	"testing"

	"scaldift/internal/ddg"
)

// Live following: a Reader opened with Follow attaches to a store
// whose writer is still appending. Poll advances a monotone frontier
// of CRC-valid chunks — re-reading only bytes past the last
// known-good offset — and observes seals, new segments, and the
// final close.

// TestStoreLiveFollowTail drives a writer and an attached follower
// in lockstep phases: every poll must extend the frontier to exactly
// what has landed, the incremental scan must never re-read bytes it
// already parsed, and the final close must hand over the complete
// store without ever reporting recovery.
func TestStoreLiveFollowTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 128)
	c.SetSpill(w)
	model := ddg.NewFull()

	const threads = 2
	appendPhase(c, model, threads, 1, 100)
	c.Flush()

	r, err := Open(dir, ReaderOptions{Follow: true, Cache: NewChunkCache(16 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Live() {
		t.Fatal("follower of an unclosed store not live")
	}
	gen0 := r.Generation()

	phases := []uint64{300, 700, 1200}
	lo := uint64(101)
	for _, hi := range phases {
		appendPhase(c, model, threads, lo, hi)
		c.Flush()
		lo = hi + 1

		advanced, err := r.Poll()
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if !advanced {
			t.Fatalf("poll after landing instances up to %d did not advance", hi)
		}
		for tid := 0; tid < threads; tid++ {
			flo, fhi := r.Window(tid)
			if flo != 1 || fhi != hi {
				t.Fatalf("tid %d frontier [%d,%d] after phase, want [1,%d]", tid, flo, fhi, hi)
			}
		}
		// A no-op poll must not re-scan the tail: all bytes up to the
		// frontier were already parsed.
		before := r.tailScanned.Load()
		advanced, err = r.Poll()
		if err != nil {
			t.Fatalf("no-op poll: %v", err)
		}
		if advanced {
			t.Fatal("no-op poll claimed advance")
		}
		if delta := r.tailScanned.Load() - before; delta != 0 {
			t.Fatalf("no-op poll re-scanned %d tail bytes", delta)
		}
	}

	// Mid-run seals must have published the manifest under bumped
	// generations, and the follower must have crossed into the sealed
	// segments without trouble.
	if w.SegmentsSealed() == 0 {
		t.Fatal("no segment sealed mid-run — rollover path untested")
	}
	if r.Generation() <= gen0 {
		t.Fatalf("generation did not advance across seals: %d -> %d", gen0, r.Generation())
	}

	// Every byte of the tail scans at most once: the incremental scan
	// plus footer fast paths must not add up to re-reading the store.
	var onDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		st, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += st.Size()
	}
	if scanned := r.tailScanned.Load(); scanned > onDisk {
		t.Fatalf("tail scans read %d bytes over a %d-byte store: not incremental", scanned, onDisk)
	}

	// Close transition: the poll that sees the final manifest flips
	// the reader out of live mode and serves the whole store.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	advanced, err := r.Poll()
	if err != nil {
		t.Fatalf("poll after close: %v", err)
	}
	if !advanced {
		t.Fatal("live -> closed transition not reported as an advance")
	}
	if r.Live() {
		t.Fatal("follower still live after observing the final manifest")
	}
	diffSource(t, model, r)
	if r.Recovered() {
		t.Fatal("clean live run reported recovery")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean live run surfaced an error: %v", err)
	}

	// Poll on a closed reader is a no-op.
	if advanced, err := r.Poll(); err != nil || advanced {
		t.Fatalf("poll on closed reader = (%v, %v), want (false, nil)", advanced, err)
	}
}

// TestStoreLiveCrashMidChunk attaches a follower, then crashes the
// writer mid-chunk: the frontier must stop at the last CRC-valid
// prefix, never serve the torn record, and agree exactly with what a
// cold reopen recovers.
func TestStoreLiveCrashMidChunk(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 64)
	c.SetSpill(w)
	model := ddg.NewFull()
	appendPhase(singleTID{c}, model, 1, 1, 200)
	c.Flush()

	r, err := Open(dir, ReaderOptions{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, hi := r.Window(0); hi != 200 {
		t.Fatalf("frontier %d before crash, want 200", hi)
	}

	// More records land intact...
	appendPhase(singleTID{c}, model, 1, 201, 350)
	c.Flush()
	// ...then the writer "crashes" mid-append: a torn record — a
	// plausible length varint and half a payload, no CRC — lands on
	// the open tail, exactly what a power cut mid-write leaves.
	tail := filepath.Join(dir, "t0-0.seg")
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{0xC8, 0x01}, make([]byte, 100)...) // plen=200, 100 bytes present
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	advanced, err := r.Poll()
	if err != nil {
		t.Fatalf("poll over torn tail: %v", err)
	}
	if !advanced {
		t.Fatal("intact records behind the torn one not picked up")
	}
	if _, hi := r.Window(0); hi != 350 {
		t.Fatalf("frontier %d after torn tail, want 350 (every intact record, nothing torn)", hi)
	}
	if !r.Live() {
		t.Fatal("crashed-but-unclosed store must still read as live")
	}
	live := recordedIDs(r)

	// A second poll must not advance (the torn record never heals)
	// and must keep the frontier pinned.
	if advanced, err := r.Poll(); err != nil || advanced {
		t.Fatalf("poll on a dead tail = (%v, %v), want (false, nil)", advanced, err)
	}

	// Cold reopen recovers exactly the follower's frontier.
	cold, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if _, hi := cold.Window(0); hi != 350 {
		t.Fatalf("cold reopen recovered to %d, want 350", hi)
	}
	coldIDs := recordedIDs(cold)
	if len(coldIDs) != len(live) {
		t.Fatalf("live frontier has %d records, cold reopen %d", len(live), len(coldIDs))
	}
	for id, deps := range live {
		if coldIDs[id] != deps {
			t.Fatalf("record %v differs between live follower and cold reopen:\nlive %s\ncold %s", id, deps, coldIDs[id])
		}
	}
	if !cold.Recovered() {
		t.Fatal("cold reopen of a crashed store not reported as recovery")
	}
	_ = w.Close() // release fds for tempdir cleanup
}

// TestReaderTransientChunkReadRetried pins the negative-cache fix: a
// chunk load that fails with a short read (transient truncation, NFS
// blip, or a racing tail) must be retried on the next access, not
// negative-cached forever. Before the fix the second query returned
// nothing: the first failure poisoned the cache for the reader's
// lifetime.
func TestReaderTransientChunkReadRetried(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1 << 20}, 1, 200, 64)

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Threads() // load the index while the file is intact

	path, metas := lastSegment(t, dir)
	last := metas[len(metas)-1]
	victim := ddg.MakeID(0, last.lastN)

	// Cut the file mid-way through the last chunk's payload, keeping
	// the original bytes to "heal" the fault afterwards.
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := last.off + int64(uvarintLen(uint64(last.plen))) + int64(last.plen)/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	if deps := ddg.CountDeps(r, victim); len(deps) != 0 {
		t.Fatalf("torn chunk served %d deps", len(deps))
	}
	if !r.Recovered() {
		t.Fatal("short chunk read not reported as recovery")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("short read surfaced as an I/O error: %v", err)
	}

	// Fault heals: the very next access must retry the load and serve
	// the chunk.
	if err := os.WriteFile(path, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if deps := ddg.CountDeps(r, victim); len(deps) == 0 {
		t.Fatal("healed chunk still served as a hole: transient failure was negative-cached")
	}
}
