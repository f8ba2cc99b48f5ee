package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scaldift/internal/ddg"
)

// depsOf materializes s.DepsOf.
func depsOf(s ddg.Source, id ddg.ID) []ddg.Dep {
	var out []ddg.Dep
	s.DepsOf(id, func(d ddg.Dep) { out = append(out, d) })
	return out
}

// appendSynthetic writes a deterministic multi-thread dependence
// stream into dst and returns a Full graph model of it.
func appendSynthetic(dst interface {
	Append(use ddg.ID, usePC int32, deps []ddg.Dep, rlDelta uint64)
}, threads, perThread int) *ddg.Full {
	model := ddg.NewFull()
	appendPhase(dst, model, threads, 1, uint64(perThread))
	return model
}

// appendPhase extends the synthetic stream by instances [lo,hi] per
// thread, growing model to match, so a live writer can land the same
// stream appendSynthetic produces in stages.
func appendPhase(dst interface {
	Append(use ddg.ID, usePC int32, deps []ddg.Dep, rlDelta uint64)
}, model *ddg.Full, threads int, lo, hi uint64) {
	for tid := 0; tid < threads; tid++ {
		for n := lo; n <= hi; n++ {
			use := ddg.MakeID(tid, n)
			pc := int32((n % 97) + 1)
			var deps []ddg.Dep
			if n > 1 {
				deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
					Def: ddg.MakeID(tid, n-1), DefPC: pc - 1, Kind: ddg.Data})
			}
			if n > 5 && n%7 == 0 {
				deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
					Def: ddg.MakeID((tid+1)%threads, n-5), DefPC: 3, Kind: ddg.Data})
			}
			if n > 2 && n%5 == 0 {
				deps = append(deps, ddg.Dep{Use: use, UsePC: pc,
					Def: ddg.MakeID(tid, n-2), DefPC: pc - 2, Kind: ddg.Control})
			}
			model.AddNode(use, pc)
			for _, d := range deps {
				model.AddDep(d)
			}
			dst.Append(use, pc, deps, 0)
		}
	}
}

// diffSource asserts got serves exactly the deps/NodePC the model
// has, over the model's full windows.
func diffSource(t *testing.T, model *ddg.Full, got ddg.Source) {
	t.Helper()
	if fmt.Sprint(model.Threads()) != fmt.Sprint(got.Threads()) {
		t.Fatalf("threads: model %v, got %v", model.Threads(), got.Threads())
	}
	for _, tid := range model.Threads() {
		mlo, mhi := model.Window(tid)
		for n := mlo; n <= mhi; n++ {
			id := ddg.MakeID(tid, n)
			want := depsOf(model, id)
			have := depsOf(got, id)
			if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", have) {
				t.Fatalf("deps of %v:\nmodel %+v\ngot   %+v", id, want, have)
			}
			// NodePC: recorded nodes only (nodes with stored deps).
			if len(want) > 0 {
				gpc, ok := got.NodePC(id)
				if !ok || gpc != want[0].UsePC {
					t.Fatalf("NodePC of %v = (%d,%v), want %d", id, gpc, ok, want[0].UsePC)
				}
			}
		}
	}
}

func spillAll(t *testing.T, dir string, opts Options, threads, perThread, chunkSize int) *ddg.Full {
	t.Helper()
	opts.Dir = dir
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, chunkSize)
	c.SetSpill(w)
	model := appendSynthetic(c, threads, perThread)
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.ChunksSpilled() == 0 || w.BytesSpilled() == 0 {
		t.Fatal("nothing spilled")
	}
	return model
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model := spillAll(t, dir, Options{SegmentBytes: 2048}, 3, 400, 256)
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diffSource(t, model, r)
	if r.Recovered() {
		t.Fatal("clean store reported recovery")
	}
	for _, tid := range model.Threads() {
		mlo, mhi := model.Window(tid)
		lo, hi := r.Window(tid)
		if lo != mlo || hi != mhi {
			t.Fatalf("tid %d window [%d,%d], want [%d,%d]", tid, lo, hi, mlo, mhi)
		}
	}
}

// TestStoreSmallCache forces heavy cache churn: correctness must not
// depend on the decoded working set fitting the cache.
func TestStoreSmallCache(t *testing.T) {
	dir := t.TempDir()
	model := spillAll(t, dir, Options{SegmentBytes: 1024}, 2, 600, 64)
	r, err := Open(dir, ReaderOptions{Cache: NewChunkCache(1 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diffSource(t, model, r)
}

// TestStoreSegmentRollover checks that multiple sealed segments per
// thread appear and reload in order.
func TestStoreSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 512}
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 64)
	c.SetSpill(w)
	model := appendSynthetic(singleTID{c}, 1, 2000)
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.SegmentsSealed() < 3 {
		t.Fatalf("expected several sealed segments, got %d", w.SegmentsSealed())
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Closed {
		t.Fatal("closed store's manifest not marked closed")
	}
	var lastSeq uint64
	for i, ms := range man.Segments {
		if !ms.Sealed {
			t.Fatalf("segment %d not sealed after Close", i)
		}
		if i > 0 && ms.FirstSeq <= lastSeq {
			t.Fatalf("global append order broken at segment %d", i)
		}
		lastSeq = ms.LastSeq
	}
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diffSource(t, model, r)
}

// singleTID adapts a lone Compact to the Append interface used by
// appendSynthetic (threads=1 only).
type singleTID struct{ c *ddg.Compact }

func (s singleTID) Append(use ddg.ID, usePC int32, deps []ddg.Dep, rl uint64) {
	s.c.Append(use, usePC, deps, rl)
}

// TestStoreEvictionLosesNothing: a capped in-memory ring over a
// spilling store evicts from memory but the reopened store serves the
// whole history — the lossy window becomes a cache bound.
func TestStoreEvictionLosesNothing(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(4*1024, 256) // tiny ring
	c.SetSpill(w)
	model := appendSynthetic(singleTID{c}, 1, 5000)
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lo, _ := c.Window(0)
	if lo <= 1 {
		t.Fatal("ring never evicted — test is vacuous")
	}
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diffSource(t, model, r) // includes records the ring dropped
}

func TestOpenMissingManifest(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), ReaderOptions{}); err == nil {
		t.Fatal("expected error opening a non-store directory")
	}
}

// TestSpillAfterCloseDropped: a chunk spilled after Close must be
// silently dropped — never a panic, never a partial write.
func TestSpillAfterCloseDropped(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 64)
	c.SetSpill(w)
	appendSynthetic(singleTID{c}, 1, 50)
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := w.ChunksSpilled()
	c.Append(ddg.MakeID(0, 1000), 3,
		[]ddg.Dep{{Use: ddg.MakeID(0, 1000), UsePC: 3, Def: ddg.MakeID(1, 9), DefPC: 2, Kind: ddg.Data}}, 0)
	c.Flush() // seals + spills into the closed writer
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := w.ChunksSpilled(); got != before {
		t.Fatalf("late chunk written after Close (%d -> %d)", before, got)
	}
}

// TestCreateScrubsManifestTemps: Create over a reused directory must
// remove orphaned manifest temp files from a crashed atomic rewrite.
func TestCreateScrubsManifestTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, manifestName+".tmp123")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned manifest temp file survived Create")
	}
}

// TestStoreMalformedChunkIsDamage: a chunk whose frame and CRC are
// intact but whose body the encoder cannot have written — here the
// bodies that used to panic the decoder, and to decode into invented
// edges — is damage: it serves nothing, marks the reader recovered,
// is negative-cached so the next probe does not re-read it, and leaves
// its healthy neighbour alone.
func TestStoreMalformedChunkIsDamage(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.SpillChunk(ddg.RawChunk{TID: 0, BaseN: 1, LastN: 2, Count: 1, Buf: []byte{0x01, 0x05}})
	w.SpillChunk(ddg.RawChunk{TID: 0, BaseN: 3, LastN: 3, Count: 1, Buf: []byte{0x01, 0x05, 0x02, 0x01}})
	healthy := ddg.NewCompact(0)
	healthy.SetSpill(w)
	use := ddg.MakeID(0, 9)
	healthy.Append(use, 5, []ddg.Dep{{Use: use, UsePC: 5, Def: ddg.MakeID(0, 8), DefPC: 4, Kind: ddg.Data}}, 0)
	healthy.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	budget := NewBudget(0)
	view := r.Budgeted(budget)
	for _, n := range []uint64{1, 2, 3} {
		for probe := 0; probe < 2; probe++ {
			if deps := depsOf(view, ddg.MakeID(0, n)); deps != nil {
				t.Fatalf("malformed chunk served %+v for instance %d", deps, n)
			}
		}
	}
	if !r.Recovered() {
		t.Fatal("malformed chunks not reported as recovery")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("damage surfaced as an I/O error: %v", err)
	}
	if loads := budget.ChunkLoads(); loads != 2 {
		t.Fatalf("%d chunk loads for two damaged chunks probed six times, want 2 (negative cache)", loads)
	}
	if deps := depsOf(r, use); len(deps) != 1 || deps[0].Def != ddg.MakeID(0, 8) {
		t.Fatalf("healthy chunk after the damaged ones: %+v", deps)
	}
}
