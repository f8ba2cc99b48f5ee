package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scaldift/internal/ddg"
)

// Retention suite: byte/age budgets delete whole sealed segments
// oldest-first, the manifest journals the trimmed window BEFORE any
// unlink (Sia persist style), readers report the trim floor exactly
// like the old ring reported its window edge, and a live follower
// rides a trim of the segment it is scanning.

// checkTrimmedWindows asserts r serves exactly the model's deps over
// each surviving window, that surviving windows are a suffix [lo, hi]
// of the recorded range, and that lo sits at the manifest's trim
// floor. Returns the number of instances verified.
func checkTrimmedWindows(t *testing.T, model *ddg.Full, r *Reader) int {
	t.Helper()
	verified := 0
	survivors := make(map[int]bool)
	for _, tid := range r.Threads() {
		survivors[tid] = true
	}
	for _, tid := range model.Threads() {
		mlo, mhi := model.Window(tid)
		if !survivors[tid] {
			// Fully trimmed: the floor must cover the whole recorded
			// range, else the reader lost data retention never deleted.
			if lo, ok := r.TrimmedLo(tid); !ok || lo <= mhi {
				t.Fatalf("tid %d served nothing but trim floor is (%d,%v), recorded [%d,%d]", tid, lo, ok, mlo, mhi)
			}
			continue
		}
		lo, hi := r.Window(tid)
		if hi != mhi {
			t.Fatalf("tid %d window hi %d, want %d (trim must only eat the oldest prefix)", tid, hi, mhi)
		}
		if tlo, ok := r.TrimmedLo(tid); ok {
			if lo != tlo {
				t.Fatalf("tid %d window lo %d, manifest trim floor %d", tid, lo, tlo)
			}
		} else if lo != mlo {
			t.Fatalf("tid %d window lo %d with no trim record, want %d", tid, lo, mlo)
		}
		for n := lo; n <= hi; n++ {
			id := ddg.MakeID(tid, n)
			want := ddg.CountDeps(model, id)
			got := ddg.CountDeps(r, id)
			if len(want) != len(got) {
				t.Fatalf("deps of %v: model %d, got %d", id, len(want), len(got))
			}
			verified++
		}
	}
	return verified
}

// segFiles lists the .seg basenames currently on disk.
func segFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			out[e.Name()] = true
		}
	}
	return out
}

func TestStoreRetentionByteBudget(t *testing.T) {
	dir := t.TempDir()
	const budget = 8 << 10
	w, err := Create(Options{Dir: dir, SegmentBytes: 2048, Retain: Retention{MaxBytes: budget}})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 256)
	c.SetSpill(w)
	model := appendSynthetic(c, 3, 400)
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.SegmentsTrimmed() == 0 {
		t.Fatal("store stayed under an 8KB budget — scenario needs more data")
	}

	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ms := range man.Segments {
		total += ms.Bytes
	}
	if total > budget {
		t.Fatalf("closed store holds %d bytes over the %d budget", total, budget)
	}
	if len(man.Trimmed) == 0 {
		t.Fatal("manifest has no trimmed-window records")
	}
	// Disk and manifest agree exactly: every listed file present, no
	// orphans left behind.
	onDisk := segFiles(t, dir)
	for _, ms := range man.Segments {
		if !onDisk[ms.File] {
			t.Fatalf("manifest lists %s but it is not on disk", ms.File)
		}
		delete(onDisk, ms.File)
	}
	for name := range onDisk {
		t.Fatalf("orphan segment %s on disk after clean close", name)
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() {
		t.Fatal("trimmed store read as crash recovery")
	}
	if n := checkTrimmedWindows(t, model, r); n == 0 {
		t.Fatal("nothing survived the trim — budget too tight to test the surviving window")
	}
	if len(r.Trimmed()) == 0 {
		t.Fatal("reader did not surface the trimmed windows")
	}
}

func TestStoreRetentionAge(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1024, Retain: Retention{MaxAge: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	w.now = func() time.Time { return base }
	c := ddg.NewCompactSized(0, 128)
	c.SetSpill(w)
	model := ddg.NewFull()
	appendPhase(c, model, 2, 1, 300)
	c.Flush()
	man0, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	agedSeals := len(man0.Segments) // published manifests list sealed only
	if agedSeals == 0 {
		t.Fatal("phase 1 sealed nothing — nothing can age out")
	}

	// Two hours pass; everything sealed in phase 1 is now beyond
	// MaxAge, everything sealed from here on is fresh.
	w.now = func() time.Time { return base.Add(2 * time.Hour) }
	appendPhase(c, model, 2, 301, 600)
	c.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.SegmentsTrimmed(); got != uint64(agedSeals) {
		t.Fatalf("trimmed %d segments, want the %d sealed before the clock jump", got, agedSeals)
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	trimmedSomething := false
	for tid := 0; tid < 2; tid++ {
		if lo, ok := r.TrimmedLo(tid); ok && lo > 1 {
			trimmedSomething = true
		}
	}
	if !trimmedSomething {
		t.Fatal("age trim left every window starting at 1")
	}
	checkTrimmedWindows(t, model, r)
}

func TestStoreTrimClosedStore(t *testing.T) {
	dir := t.TempDir()
	model := spillAll(t, dir, Options{SegmentBytes: 2048}, 2, 400, 256)
	man0, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	removed, err := Trim(dir, Retention{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("janitor trim removed nothing")
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Generation <= man0.Generation {
		t.Fatalf("trim did not bump generation: %d -> %d", man0.Generation, man.Generation)
	}
	if !man.Closed {
		t.Fatal("trim un-closed the store")
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() {
		t.Fatal("trimmed store read as crash recovery")
	}
	checkTrimmedWindows(t, model, r)

	// Idempotent: the store is under budget now.
	if again, err := Trim(dir, Retention{MaxBytes: 4 << 10}); err != nil || again != 0 {
		t.Fatalf("second trim = (%d, %v), want (0, nil)", again, err)
	}

	// Trimming a live store is the writer's job, not the janitor's.
	liveDir := t.TempDir()
	lw, err := Create(Options{Dir: liveDir})
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	if _, err := Trim(liveDir, Retention{MaxBytes: 1}); err == nil {
		t.Fatal("Trim accepted a store whose writer has not closed")
	}
}

// TestStoreTrimPrunesClosedReader: a reader open on a closed store
// rides a janitor Trim in place. A lookup between the trim and the
// next Poll finds its segment gone without reading that as crash loss;
// the Poll prunes the trimmed segments, so each window starts at its
// trim floor and every lookup equals a cold reader's; and a second
// Poll reports nothing.
func TestStoreTrimPrunesClosedReader(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 2048}, 2, 400, 256)
	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lo0, _ := r.Window(0) // loads the index, no chunk
	gen := r.Generation()

	if removed, err := Trim(dir, Retention{MaxBytes: 4 << 10}); err != nil || removed == 0 {
		t.Fatalf("trim = (%d, %v), want segments removed", removed, err)
	}
	ddg.CountDeps(r, ddg.MakeID(0, lo0))
	if r.Recovered() {
		t.Fatal("a lookup racing the trim read as crash recovery")
	}
	if advanced, err := r.Poll(); err != nil || !advanced {
		t.Fatalf("poll after trim = (%v, %v), want an advance", advanced, err)
	}
	if r.Generation() <= gen {
		t.Fatalf("generation %d not past %d after the trim's poll", r.Generation(), gen)
	}
	if len(r.Trimmed()) == 0 {
		t.Fatal("the poll published no trim floor")
	}
	cold, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if fmt.Sprint(r.Threads()) != fmt.Sprint(cold.Threads()) {
		t.Fatalf("threads %v, cold reader %v", r.Threads(), cold.Threads())
	}
	for _, tid := range r.Threads() {
		lo, hi := r.Window(tid)
		if floor, ok := r.TrimmedLo(tid); ok && lo != floor {
			t.Fatalf("tid %d window starts at %d, trim floor %d", tid, lo, floor)
		}
		if clo, chi := cold.Window(tid); lo != clo || hi != chi {
			t.Fatalf("tid %d window [%d,%d], cold reader [%d,%d]", tid, lo, hi, clo, chi)
		}
		for n := lo; n <= hi; n++ {
			id := ddg.MakeID(tid, n)
			if got, want := fmt.Sprint(ddg.CountDeps(r, id)), fmt.Sprint(ddg.CountDeps(cold, id)); got != want {
				t.Fatalf("deps of %v: %s, cold reader %s", id, got, want)
			}
		}
	}
	if r.Recovered() || r.Err() != nil {
		t.Fatalf("recovered=%v err=%v after an in-place prune", r.Recovered(), r.Err())
	}
	if advanced, err := r.Poll(); err != nil || advanced {
		t.Fatalf("second poll = (%v, %v), want nothing", advanced, err)
	}
}

// TestStoreRetentionKeepsThreadPrefix pins planTrim's per-thread
// prefix rule on manifests whose SealedAt is not monotone within a
// thread: a kept segment must block every later segment of its thread,
// or applyTrim raises MinSeq past a segment that is still on disk and
// the retained range grows a hole no truncation label reports.
func TestStoreRetentionKeepsThreadPrefix(t *testing.T) {
	now := time.Now()
	fresh := now.Add(-30 * time.Minute).Unix()
	aged := now.Add(-2 * time.Hour).Unix()
	for _, tc := range []struct {
		name     string
		sealedAt [][]int64 // per thread, per segment seq
		want     int       // victims expected
	}{
		// tid 0's clock stepped back after seq 0 sealed; tid 1 is
		// monotone and trims its aged prefix.
		{"clock step back", [][]int64{{fresh, aged, aged}, {aged, aged, fresh}}, 2},
		// An entry from before retention (SealedAt 0) never ages out,
		// so the aged entry behind it stays too.
		{"unstamped entry ahead", [][]int64{{0, aged}, {aged, fresh}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			man := &manifest{}
			seq := uint64(0)
			for i := 0; ; i++ { // interleave threads in global append order
				more := false
				for tid, at := range tc.sealedAt {
					if i >= len(at) {
						continue
					}
					more = true
					man.Segments = append(man.Segments, manifestSeg{
						File: fmt.Sprintf("t%d-%d.seg", tid, i), TID: tid, Sealed: true,
						Chunks: 1, FirstSeq: seq, LastSeq: seq, Bytes: 1024, SealedAt: at[i],
					})
					seq++
				}
				if !more {
					break
				}
			}
			victims := planTrim(man, Retention{MaxAge: time.Hour}, now)
			trimmed := make(map[int]bool)
			for _, i := range victims {
				trimmed[i] = true
			}
			kept := make(map[int]string) // tid -> first kept segment
			for i, ms := range man.Segments {
				if !trimmed[i] {
					if _, ok := kept[ms.TID]; !ok {
						kept[ms.TID] = ms.File
					}
				} else if k, ok := kept[ms.TID]; ok {
					t.Fatalf("victim %s follows kept %s on its thread", ms.File, k)
				}
			}
			if len(victims) != tc.want {
				t.Fatalf("%d victims, want %d", len(victims), tc.want)
			}
		})
	}
}

// TestStoreRetentionCrashBeforeUnlink is the retention crash suite:
// the trim journals its manifest rewrite first and dies before any
// unlink. Reopening must serve a manifest-consistent prefix — the
// orphaned files are invisible, the trimmed window is reported, and
// nothing reads as crash damage. A later janitor pass sweeps the
// orphans.
func TestStoreRetentionCrashBeforeUnlink(t *testing.T) {
	dir := t.TempDir()
	model := spillAll(t, dir, Options{SegmentBytes: 2048}, 2, 400, 256)

	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victims := planTrim(man, Retention{MaxBytes: 4 << 10}, time.Now())
	if len(victims) == 0 {
		t.Fatal("nothing to trim")
	}
	orphans := applyTrim(man, victims)
	man.Generation++
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	// "Crash": unlinkTrimmed never runs. The deleted-from-manifest
	// files are all still on disk.
	onDisk := segFiles(t, dir)
	for _, ms := range orphans {
		if !onDisk[ms.File] {
			t.Fatalf("test setup: %s should still exist", ms.File)
		}
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovered() {
		t.Fatal("trim orphans misread as crash damage")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(r.Trimmed()) == 0 {
		t.Fatal("reopen lost the trimmed-window records")
	}
	checkTrimmedWindows(t, model, r)
	r.Close()

	// The janitor reclaims the orphans even though the current state
	// needs no further trimming.
	removed, err := Trim(dir, Retention{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("sweep re-trimmed %d live segments", removed)
	}
	onDisk = segFiles(t, dir)
	for _, ms := range orphans {
		if onDisk[ms.File] {
			t.Fatalf("orphan %s not swept", ms.File)
		}
	}
}

func TestStoreLiveFollowAcrossTrim(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1024, Retain: Retention{MaxBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 128)
	c.SetSpill(w)
	model := ddg.NewFull()
	const threads = 2
	appendPhase(c, model, threads, 1, 100)
	c.Flush()

	r, err := Open(dir, ReaderOptions{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gen := r.Generation()

	lo := uint64(101)
	for _, hi := range []uint64{400, 800, 1200} {
		appendPhase(c, model, threads, lo, hi)
		c.Flush()
		lo = hi + 1
		if _, err := r.Poll(); err != nil {
			t.Fatalf("poll: %v", err)
		}
		if g := r.Generation(); g < gen {
			t.Fatalf("generation went backwards: %d -> %d", gen, g)
		} else {
			gen = g
		}
	}
	if w.SegmentsTrimmed() == 0 {
		t.Fatal("live run never trimmed — scenario needs more data")
	}
	// The follower must have picked the trims up mid-run: its windows
	// start at the trim floor, not at 1.
	floored := false
	for tid := 0; tid < threads; tid++ {
		wlo, whi := r.Window(tid)
		if wlo > 1 && whi >= wlo {
			floored = true
		}
	}
	if !floored {
		t.Fatal("follower windows never moved off instance 1 despite trims")
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Poll(); err != nil {
		t.Fatalf("poll after close: %v", err)
	}
	if r.Live() {
		t.Fatal("still live after final manifest")
	}
	if r.Recovered() {
		t.Fatal("trimmed live run read as recovery")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if n := checkTrimmedWindows(t, model, r); n == 0 {
		t.Fatal("nothing survived to verify")
	}
}

// countFDs returns this process's open descriptor count.
func countFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(entries)
}

// TestStoreFollowerSurvivesTrimOfScannedTail: a follower knows a live
// tail segment — it has indexed part of it (ScannedTail), or only
// listed it and not loaded the thread yet (UnloadedThread). Before its
// next Poll the writer seals that segment and its own retention trims
// and unlinks it. The follower holds no fd on the segment and nothing
// protects it from the unlink, yet the poll must move the window up to
// the trim floor and keep serving exactly the recorded deps, with no
// recovery and no error.
func TestStoreFollowerSurvivesTrimOfScannedTail(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scanned bool
	}{{"ScannedTail", true}, {"UnloadedThread", false}} {
		scanned := tc.scanned
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(Options{Dir: dir, SegmentBytes: 4096, Retain: Retention{MaxBytes: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			c := ddg.NewCompactSized(0, 32)
			c.SetSpill(w)
			model := ddg.NewFull()
			appendPhase(c, model, 1, 1, 100)
			c.Flush()

			r, err := Open(dir, ReaderOptions{Follow: true})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ts := r.thread(0)
			ts.mu.Lock()
			if scanned {
				r.ensureLoaded(ts)
			}
			tail, off := ts.segs[ts.nextSeg], ts.segOff
			ts.mu.Unlock()
			if tail.sealed || (off == 0) == scanned {
				t.Fatalf("setup: live tail %s sealed %v, scan offset %d", tail.file, tail.sealed, off)
			}

			appendPhase(c, model, 1, 101, 600)
			c.Flush()
			if segFiles(t, dir)[tail.file] {
				t.Fatalf("setup: %s survived the writer's retention", tail.file)
			}
			// A query between the unlink and the poll opens the segment
			// the manifest this reader last read still lists.
			r.Threads()
			if _, err := r.Poll(); err != nil {
				t.Fatal(err)
			}
			floor, ok := r.TrimmedLo(0)
			if !ok {
				t.Fatal("follower never saw the trim floor")
			}
			lo, hi := r.Window(0)
			if lo != floor || hi < lo {
				t.Fatalf("window [%d,%d], want it to start at the trim floor %d", lo, hi, floor)
			}
			if r.Recovered() {
				t.Fatal("trim of the live tail read as recovery")
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			for n := lo; n <= hi; n++ {
				id := ddg.MakeID(0, n)
				if want, got := fmt.Sprint(ddg.CountDeps(model, id)), fmt.Sprint(ddg.CountDeps(r, id)); want != got {
					t.Fatalf("deps of %v:\nmodel %s\ngot   %s", id, want, got)
				}
			}
		})
	}
}

// TestStoreFollowerChunkLoadRacingTrim: a follower's index still lists
// segments the writer's retention has since trimmed and unlinked. A
// chunk load from one of them before the next Poll finds no file; the
// manifest says retention took it, so the reader is not marked
// recovered and reports no error, and the Poll prunes the window to
// the trim floor.
func TestStoreFollowerChunkLoadRacingTrim(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1024, Retain: Retention{MaxBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := ddg.NewCompactSized(0, 32)
	c.SetSpill(w)
	model := ddg.NewFull()
	appendPhase(c, model, 1, 1, 200)
	c.Flush()

	r, err := Open(dir, ReaderOptions{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lo, _ := r.Window(0) // indexes the thread, loads no chunk
	appendPhase(c, model, 1, 201, 1200)
	c.Flush()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Trimmed) == 0 || man.Trimmed[0].Lo <= lo {
		t.Fatalf("setup: trims %+v leave instance %d on disk", man.Trimmed, lo)
	}

	ddg.CountDeps(r, ddg.MakeID(0, lo))
	if r.Recovered() {
		t.Fatal("a chunk load racing retention marked the reader recovered")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Poll(); err != nil {
		t.Fatal(err)
	}
	wlo, hi := r.Window(0)
	if wlo != man.Trimmed[0].Lo {
		t.Fatalf("window starts at %d after the poll, want the trim floor %d", wlo, man.Trimmed[0].Lo)
	}
	for n := wlo; n <= hi; n++ {
		id := ddg.MakeID(0, n)
		if want, got := fmt.Sprint(ddg.CountDeps(model, id)), fmt.Sprint(ddg.CountDeps(r, id)); want != got {
			t.Fatalf("deps of %v:\nmodel %s\ngot   %s", id, want, got)
		}
	}
	if r.Recovered() {
		t.Fatal("the prune read as recovery")
	}
}

// TestStoreFollowerClosesTailFDsOnFlip: a follower holds no fd between
// calls, live or closed. Loading every index, a live Poll and the poll
// that observes the writer's close all leave the process's fd count
// where it was.
func TestStoreFollowerClosesTailFDsOnFlip(t *testing.T) {
	baseline := countFDs(t)

	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 1 << 20}) // tails never seal mid-run
	if err != nil {
		t.Fatal(err)
	}
	c := ddg.NewCompactSized(0, 64)
	c.SetSpill(w)
	model := ddg.NewFull()
	const threads = 3
	appendPhase(c, model, threads, 1, 200)
	c.Flush()
	withWriter := countFDs(t)

	r, err := Open(dir, ReaderOptions{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.Threads()); got != threads { // loads every index
		t.Fatalf("%d threads, want %d", got, threads)
	}
	if got := countFDs(t); got != withWriter {
		t.Fatalf("loading the live indexes changed the fd count %d -> %d", withWriter, got)
	}

	appendPhase(c, model, threads, 201, 400)
	c.Flush()
	if advanced, err := r.Poll(); err != nil || !advanced {
		t.Fatalf("live poll = (%v, %v), want an advance", advanced, err)
	}
	if got := countFDs(t); got != withWriter {
		t.Fatalf("live poll changed the fd count %d -> %d", withWriter, got)
	}

	// The flip: writer closes (dropping its own fds), the next poll
	// observes it, and the process is back at the pre-store count.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Poll(); err != nil {
		t.Fatal(err)
	}
	if r.Live() {
		t.Fatal("still live after the final manifest")
	}
	if got := countFDs(t); got != baseline {
		t.Fatalf("fd count %d after the live→closed flip, want the pre-store baseline %d", got, baseline)
	}
	diffSource(t, model, r)
}

// TestStoreDamageBurstKeepsHealthyCache is the negative-cache
// crowding regression: damaged-chunk (negative) entries used to share
// the decoded-chunk FIFO, so a burst of damage probes evicted every
// healthy hot chunk. Negatives now live in their own bounded set: a
// healthy cached chunk must survive the burst — provably served from
// memory, because its on-disk bytes are corrupted before the burst.
// The cache holds exactly the hot chunk, so anything the burst admitted
// or evicted would push it out.
func TestStoreDamageBurstKeepsHealthyCache(t *testing.T) {
	dir := t.TempDir()
	spillAll(t, dir, Options{SegmentBytes: 1 << 20}, 1, 1200, 64)

	probe, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe.Threads()
	pts := probe.thread(0)
	pts.mu.Lock()
	chunks := append([]tChunk(nil), pts.chunks...)
	path := pts.segs[0].path
	pts.mu.Unlock()
	probe.Close()
	if len(chunks) < maxNegatives+3 {
		t.Fatal("need a longer chunk run")
	}
	hotChunk, err := readChunk(path, 0, chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(int64(hotChunk.Bytes()))

	r, err := Open(dir, ReaderOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Threads() // index while intact
	ts := r.thread(0)

	hot := ddg.MakeID(0, chunks[0].lastN)
	if deps := ddg.CountDeps(r, hot); len(deps) == 0 {
		t.Fatal("test id has no deps")
	}

	// Corrupt the hot chunk AND a burst of others on disk. From here
	// on, only the in-memory cache can serve the hot chunk.
	flip := func(tc tChunk) {
		off := tc.off + int64(uvarintLen(uint64(tc.plen)))
		buf := make([]byte, 1)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(buf, off); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
		overwriteAt(t, path, off, []byte{buf[0] ^ 0x5A})
	}
	burst := chunks[1 : 1+maxNegatives+2]
	flip(chunks[0])
	for _, tc := range burst {
		flip(tc)
	}
	for _, tc := range burst {
		if deps := ddg.CountDeps(r, ddg.MakeID(0, tc.lastN)); len(deps) != 0 {
			t.Fatalf("damaged chunk at %d served %d deps", tc.off, len(deps))
		}
	}
	if !r.Recovered() {
		t.Fatal("damage burst not reported as recovery")
	}

	// The regression: before negatives were bounded separately, the
	// burst above FIFO-evicted the healthy chunk, and this re-read the
	// now-corrupt bytes and served a hole.
	if deps := ddg.CountDeps(r, hot); len(deps) == 0 {
		t.Fatal("healthy hot chunk evicted by damage negatives")
	}
	if st := cache.Stats(); st.Evictions != 0 || st.Bytes != int64(hotChunk.Bytes()) {
		t.Fatalf("after the damage burst: %d evictions, %d bytes resident; want 0 and only the hot chunk's %d", st.Evictions, st.Bytes, hotChunk.Bytes())
	}

	ts.mu.Lock()
	negs, negFifo := len(ts.neg), len(ts.negFifo)
	ts.mu.Unlock()
	if negs > maxNegatives || negFifo > maxNegatives {
		t.Fatalf("negative set unbounded: %d entries / %d fifo over bound %d", negs, negFifo, maxNegatives)
	}
}
