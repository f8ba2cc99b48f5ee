package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Retention bounds how much sealed history a store keeps on disk.
// Retention only ever deletes whole sealed segments, oldest first in
// global append order, and only a per-thread prefix of them — so a
// thread's retained range is always a contiguous suffix [lo, hi] of
// what was recorded, exactly the shape the in-memory ring exposed.
// The zero value retains everything.
type Retention struct {
	// MaxBytes caps the total sealed-segment bytes on disk; once
	// exceeded, the oldest sealed segments are deleted until the store
	// is back under the cap. 0 means no byte budget.
	MaxBytes int64
	// MaxAge deletes sealed segments whose seal time is older than
	// this. 0 means no age limit.
	MaxAge time.Duration
}

func (r Retention) enabled() bool { return r.MaxBytes > 0 || r.MaxAge > 0 }

// planTrim selects sealed manifest entries to delete under ret,
// oldest first in global append order (FirstSeq). Victims form a
// per-thread prefix of the segment sequence: a retained segment blocks
// trimming everything after it on its thread, so retained ranges never
// grow holes — even when a thread's SealedAt is not monotone (a wall
// clock stepped back, or an old entry without one). Returns indexes
// into man.Segments, ascending.
func planTrim(man *manifest, ret Retention, now time.Time) []int {
	if !ret.enabled() {
		return nil
	}
	type cand struct {
		idx      int
		firstSeq uint64
	}
	var sealedBytes int64
	var cands []cand
	for i, ms := range man.Segments {
		if ms.Sealed {
			sealedBytes += ms.Bytes
			cands = append(cands, cand{i, ms.FirstSeq})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].firstSeq < cands[j].firstSeq })

	var cutoff int64
	if ret.MaxAge > 0 {
		cutoff = now.Add(-ret.MaxAge).Unix()
	}
	var over int64
	if ret.MaxBytes > 0 && sealedBytes > ret.MaxBytes {
		over = sealedBytes - ret.MaxBytes
	}
	blocked := make(map[int]bool)
	var victims []int
	for _, c := range cands {
		ms := &man.Segments[c.idx]
		aged := cutoff > 0 && ms.SealedAt > 0 && ms.SealedAt < cutoff
		if blocked[ms.TID] || (over <= 0 && !aged) {
			blocked[ms.TID] = true
			continue
		}
		victims = append(victims, c.idx)
		over -= ms.Bytes
	}
	sort.Ints(victims)
	return victims
}

// applyTrim removes the victim entries from the manifest and folds
// them into its Trimmed records: per thread, MinSeq rises past the
// deleted segment files (so a reader never re-adopts an orphan a
// crash left behind) and Lo rises to the first instance that may
// still be retained. It mutates only the in-memory manifest — the
// journaled on-disk sequence (manifest rewrite first, unlink second)
// is the caller's job. Returns the removed entries for the unlink
// step.
func applyTrim(man *manifest, victims []int) []manifestSeg {
	if len(victims) == 0 {
		return nil
	}
	trimIdx := make(map[int]int, len(man.Trimmed))
	for i, tr := range man.Trimmed {
		trimIdx[tr.TID] = i
	}
	vset := make(map[int]bool, len(victims))
	removed := make([]manifestSeg, 0, len(victims))
	for _, i := range victims {
		vset[i] = true
		ms := man.Segments[i]
		removed = append(removed, ms)
		ti, ok := trimIdx[ms.TID]
		if !ok {
			man.Trimmed = append(man.Trimmed, manifestTrim{TID: ms.TID})
			ti = len(man.Trimmed) - 1
			trimIdx[ms.TID] = ti
		}
		tr := &man.Trimmed[ti]
		if _, seq, ok := parseSegName(ms.File); ok && seq+1 > tr.MinSeq {
			tr.MinSeq = seq + 1
		}
		if ms.Chunks > 0 && ms.LastN+1 > tr.Lo {
			tr.Lo = ms.LastN + 1
		}
		tr.Chunks += ms.Chunks
		tr.Bytes += ms.Bytes
	}
	kept := make([]manifestSeg, 0, len(man.Segments)-len(victims))
	for i, ms := range man.Segments {
		if !vset[i] {
			kept = append(kept, ms)
		}
	}
	man.Segments = kept
	sort.Slice(man.Trimmed, func(i, j int) bool { return man.Trimmed[i].TID < man.Trimmed[j].TID })
	return removed
}

// unlinkTrimmed deletes trimmed segment files. It runs strictly after
// the manifest rewrite has landed (Sia-style journaling: metadata
// first, then the destructive step), so a crash in between leaves
// orphan files the reader skips via the manifest's Trimmed records —
// never a manifest pointing at vanished data. A live follower loses
// nothing to the unlink: on POSIX a descriptor already open on the
// file keeps reading it, and the follower's next Poll reads the
// rewritten manifest and prunes the segment from its window.
func unlinkTrimmed(dir string, victims []manifestSeg) {
	for _, ms := range victims {
		// Best-effort: a failed unlink leaves an orphan the manifest no
		// longer references; readers skip it and the next trim retries.
		_ = os.Remove(filepath.Join(dir, ms.File))
	}
}

// Trim applies a retention policy to a closed store on disk — the
// janitor path for stores whose writer is long gone. The live path is
// Options.Retain, applied by the writer itself. Trimming follows the
// same journaled order as the writer: rewrite the manifest (victims
// removed, trimmed windows recorded, generation bumped), sync the
// directory, then unlink. Returns how many segments were removed.
func Trim(dir string, ret Retention) (removed int, err error) {
	man, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	if !man.Closed {
		return 0, fmt.Errorf("store: trim %s: writer has not closed (live retention belongs to the writer)", dir)
	}
	victims := planTrim(man, ret, time.Now())
	if len(victims) > 0 {
		segs := applyTrim(man, victims)
		man.Generation++
		if err := writeManifest(dir, man); err != nil {
			return 0, err
		}
		if err := syncDir(dir); err != nil {
			return 0, err
		}
		unlinkTrimmed(dir, segs)
		removed = len(segs)
	}
	sweepOrphans(dir, man)
	return removed, nil
}

// sweepOrphans unlinks segment files a crashed trim journaled out of
// the manifest but never got to delete: anything on disk below a
// thread's trimmed MinSeq and absent from the segment list. Readers
// already skip these, so the sweep is pure disk reclamation and every
// failure is ignorable.
func sweepOrphans(dir string, man *manifest) {
	if len(man.Trimmed) == 0 {
		return
	}
	minSeq := make(map[int]int, len(man.Trimmed))
	for _, tr := range man.Trimmed {
		minSeq[tr.TID] = tr.MinSeq
	}
	listed := make(map[string]bool, len(man.Segments))
	for _, ms := range man.Segments {
		listed[ms.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		tid, seq, ok := parseSegName(name)
		if !ok || listed[name] || seq >= minSeq[tid] {
			continue
		}
		_ = os.Remove(filepath.Join(dir, name))
	}
}
