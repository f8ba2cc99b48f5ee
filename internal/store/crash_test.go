package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"scaldift/internal/ddg"
)

// Crash-safety: a segment truncated mid-chunk (power cut, partial
// flush) must not error or serve garbage — the reader recovers every
// earlier segment in full plus the valid chunk prefix of the damaged
// one, and reports recovery.

// lastSegment returns the path of the manifest's last segment and
// that segment's indexed chunks.
func lastSegment(t *testing.T, dir string) (string, []chunkMeta) {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("no segments")
	}
	ms := man.Segments[len(man.Segments)-1]
	path := filepath.Join(dir, ms.File)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	metas, ok := readFooterIndex(f)
	if !ok {
		t.Fatalf("segment %s has no valid footer before the test truncates it", ms.File)
	}
	return path, metas
}

// recordedIDs lists every (id, deps) the source serves inside its
// windows, sorted for comparison.
func recordedIDs(src ddg.Source) map[ddg.ID]string {
	out := make(map[ddg.ID]string)
	for _, tid := range src.Threads() {
		lo, hi := src.Window(tid)
		for n := lo; n <= hi && lo != 0; n++ {
			id := ddg.MakeID(tid, n)
			if deps := ddg.CountDeps(src, id); len(deps) > 0 {
				out[id] = fmt.Sprintf("%+v", deps)
			}
		}
	}
	return out
}

func TestStoreCrashTruncatedMidChunk(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1024}, 2, 800, 128)

	// Intact baseline.
	r0, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := recordedIDs(r0)
	r0.Close()

	// Truncate the last segment mid-chunk: keep the header and the
	// first chunk record, cut into the middle of the second.
	path, metas := lastSegment(t, dir)
	if len(metas) < 2 {
		t.Skip("last segment too small to cut mid-chunk")
	}
	cut := metas[1].off + int64(uvarintLen(uint64(metas[1].plen))) + int64(metas[1].plen)/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("reopen after truncation must not error: %v", err)
	}
	defer r.Close()
	after := recordedIDs(r)
	if !r.Recovered() {
		t.Fatal("truncation not reported as recovery")
	}

	// The survivors must be a strict prefix of the intact store: no
	// invented records, no altered deps, and exactly the damaged
	// segment's tail missing.
	if len(after) >= len(before) {
		t.Fatalf("nothing lost? before %d, after %d", len(before), len(after))
	}
	for id, deps := range after {
		if before[id] != deps {
			t.Fatalf("record %v changed after truncation:\nbefore %s\nafter  %s", id, before[id], deps)
		}
	}
	// Lost records are only the truncated thread's newest: every
	// other thread is complete.
	var lost []ddg.ID
	for id := range before {
		if _, ok := after[id]; !ok {
			lost = append(lost, id)
		}
	}
	lostTID := lost[0].TID()
	var lostNs []uint64
	for _, id := range lost {
		if id.TID() != lostTID {
			t.Fatalf("records lost across threads: %v", lost)
		}
		lostNs = append(lostNs, id.N())
	}
	sort.Slice(lostNs, func(i, j int) bool { return lostNs[i] < lostNs[j] })
	_, hiAfter := r.Window(lostTID)
	if lostNs[0] <= hiAfter {
		t.Fatalf("lost instance %d inside the recovered window (hi %d)", lostNs[0], hiAfter)
	}
}

// TestStoreCrashTruncatedFooter cuts a sealed segment inside its
// footer: the chunk records are all intact, so the fallback scan must
// recover every one of them.
func TestStoreCrashTruncatedFooter(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1024}, 1, 500, 128)

	r0, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := recordedIDs(r0)
	r0.Close()

	path, _ := lastSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-10); err != nil { // into the footer magic
		t.Fatal(err)
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("reopen after footer loss must not error: %v", err)
	}
	defer r.Close()
	after := recordedIDs(r)
	if !r.Recovered() { // recovery is detected on (lazy) index load
		t.Fatal("footer loss not reported as recovery")
	}
	if len(after) != len(before) {
		t.Fatalf("footer-only damage lost records: before %d, after %d", len(before), len(after))
	}
	for id, deps := range after {
		if before[id] != deps {
			t.Fatalf("record %v changed: %s vs %s", id, before[id], deps)
		}
	}
}

// hugeVarint is an all-set 10-byte uvarint (~2^64): the worst-case
// corrupt length field, which used to overflow the reader's bounds
// arithmetic into a slice panic.
var hugeVarint = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

// overwriteAt patches raw bytes into a file.
func overwriteAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCrashCorruptChunkLength: a chunk record whose length
// varint rots to ~2^64 in a footer-less segment must end the prefix
// scan as damage — not panic with slice bounds out of range.
func TestStoreCrashCorruptChunkLength(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1024}, 1, 800, 128)
	path, metas := lastSegment(t, dir)
	if len(metas) < 2 {
		t.Fatal("segment too small for the scenario")
	}
	// Drop the footer (forcing the scan path), then rot the second
	// chunk's length varint.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-10); err != nil {
		t.Fatal(err)
	}
	overwriteAt(t, path, metas[1].off, hugeVarint)

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("reopen must not error: %v", err)
	}
	defer r.Close()
	got := recordedIDs(r) // would panic before the bounds check
	if !r.Recovered() {
		t.Fatal("corruption not reported as recovery")
	}
	if len(got) == 0 {
		t.Fatal("valid prefix not served")
	}
}

// TestStoreCrashCorruptFooterLength: a sealed segment whose footer
// length varint rots (trailing magic intact) must fall back to the
// prefix scan — the chunk records are untouched, so recovery is
// total.
func TestStoreCrashCorruptFooterLength(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1024}, 1, 500, 128)

	r0, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := recordedIDs(r0)
	r0.Close()

	path, _ := lastSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Trailer: ... | crc32 | uint32 total | 8-byte magic. Rot the
	// flen varint just after the footer's 0x00 sentinel.
	var tail [12]byte
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(tail[:], st.Size()-12); err != nil {
		t.Fatal(err)
	}
	f.Close()
	total := int64(tail[0]) | int64(tail[1])<<8 | int64(tail[2])<<16 | int64(tail[3])<<24
	blockStart := st.Size() - total
	overwriteAt(t, path, blockStart+1, hugeVarint)

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("reopen must not error: %v", err)
	}
	defer r.Close()
	after := recordedIDs(r) // would panic before the bounds check
	if !r.Recovered() {
		t.Fatal("footer corruption not reported as recovery")
	}
	if len(after) != len(before) {
		t.Fatalf("scan fallback lost records: %d -> %d", len(before), len(after))
	}
}

// TestStoreCrashWriterNeverClosed models a hard crash: chunks were
// spilled but Close never ran. The mid-run manifest lists sealed
// segments (each seal publishes it) but not the open tails, which
// also never got their footers. The reader must discover those tail
// files by directory scan and serve every spilled chunk.
func TestStoreCrashWriterNeverClosed(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 128)
	c.SetSpill(w)
	model := appendSynthetic(c, 2, 600)
	c.Flush()
	// No w.Close(): the manifest must not claim a clean shutdown, and
	// the open tail segments are not yet listed.
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Closed {
		t.Fatalf("manifest closed mid-run: %+v", man)
	}
	for _, ms := range man.Segments {
		if !ms.Sealed {
			t.Fatalf("mid-run manifest lists unsealed segment %q", ms.File)
		}
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("reopen of a crashed store must not error: %v", err)
	}
	defer r.Close()
	diffSource(t, model, r)
	if !r.Recovered() {
		t.Fatal("stray segments not reported as recovery")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("crash damage must not surface as an I/O error: %v", err)
	}
	_ = w.Close() // release the writer's fds for the tempdir cleanup
}

// TestStoreCrashMissingSegment deletes one thread's only segment
// entirely: the other threads stay readable.
func TestStoreCrashMissingSegment(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1 << 20}, 2, 200, 128)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := man.Segments[0]
	if err := os.Remove(filepath.Join(dir, victim.File)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("reopen with a missing segment must not error: %v", err)
	}
	defer r.Close()
	survivors := recordedIDs(r)
	if len(survivors) == 0 {
		t.Fatal("everything lost with one missing segment")
	}
	for id := range survivors {
		if id.TID() == victim.TID {
			t.Fatalf("victim thread %d still has records", victim.TID)
		}
	}
	if !r.Recovered() {
		t.Fatal("missing segment not reported as recovery")
	}
}
