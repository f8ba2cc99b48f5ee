package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"scaldift/internal/ddg"
)

// Options shapes a Writer.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// SegmentBytes seals a segment once its chunk records reach this
	// size; <= 0 selects the 1MB default.
	SegmentBytes int
	// SyncOnSeal fsyncs a segment before the manifest marks it
	// sealed, making sealed data crash-durable at the cost of
	// throughput.
	SyncOnSeal bool
	// Retain bounds on-disk history. After every seal (and once more
	// at Close) the writer deletes aged-out or over-budget sealed
	// segments, records the trimmed per-thread windows in the
	// manifest, and bumps the generation — slicers then report
	// truncation at the trimmed edge exactly like the old in-memory
	// ring did at its window edge. The zero value retains everything.
	Retain Retention
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
}

// Writer spills sealed compact chunks into per-thread segment files
// under one directory. It implements ddg.ChunkSink and is safe for
// concurrent use: one ddg.Compact spills from a single goroutine, but
// Close, retention and the counters race it. I/O errors are sticky: the
// first one stops further writes and surfaces from Err and Close.
type Writer struct {
	opts Options

	mu       sync.Mutex
	segs     map[int]*openSeg
	segCount map[int]int // per-tid segment name counter
	man      manifest
	gseq     uint64
	chunks   uint64
	bytes    uint64 // chunk payload bytes spilled
	sealed   uint64 // segments sealed
	trimmed  uint64 // segments deleted by retention
	now      func() time.Time
	err      error
	closed   bool
}

// openSeg is one thread's active segment file.
type openSeg struct {
	tid    int
	file   string // basename
	f      *os.File
	size   int64 // bytes written so far
	index  []chunkMeta
	manIdx int // index of this segment's manifest entry
	buf    []byte
}

// Create opens (or creates) the store directory and returns a writer.
// An existing store in the directory is replaced: stale segment files
// and manifest are removed so the new run's manifest never references
// another run's segments.
func Create(opts Options) (*Writer, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		// Manifest, orphaned manifest temp files from a crashed
		// atomic rewrite, and segment files.
		if strings.HasPrefix(name, manifestName) || filepath.Ext(name) == ".seg" {
			if err := os.Remove(filepath.Join(opts.Dir, name)); err != nil {
				return nil, err
			}
		}
	}
	w := &Writer{
		opts:     opts,
		segs:     make(map[int]*openSeg),
		segCount: make(map[int]int),
		man:      manifest{Header: manifestHeader, Version: manifestVersion},
		now:      time.Now,
	}
	if err := writeManifest(opts.Dir, &w.man); err != nil {
		return nil, err
	}
	return w, nil
}

// SpillChunk implements ddg.ChunkSink: the chunk record is written
// before it returns. Safe for concurrent use. Chunks spilled after
// Close are dropped.
func (w *Writer) SpillChunk(ch ddg.RawChunk) {
	w.mu.Lock()
	w.spill(ch)
	w.mu.Unlock()
}

// spill writes one chunk record (w.mu held).
func (w *Writer) spill(ch ddg.RawChunk) {
	if w.err != nil || w.closed {
		return
	}
	seg, err := w.segFor(ch.TID)
	if err != nil {
		w.err = err
		return
	}
	rec, plen := appendChunkRecord(seg.buf[:0], w.gseq, ch)
	seg.buf = rec[:0]
	if _, err := seg.f.Write(rec); err != nil {
		w.err = err
		return
	}
	seg.index = append(seg.index, chunkMeta{
		off:   seg.size,
		plen:  plen,
		gseq:  w.gseq,
		baseN: ch.BaseN,
		lastN: ch.LastN,
		count: ch.Count,
	})
	seg.size += int64(len(rec))
	w.gseq++
	w.chunks++
	w.bytes += uint64(len(ch.Buf))
	if seg.size >= int64(w.opts.SegmentBytes) {
		w.sealSeg(seg, true)
	}
}

// segFor returns tid's active segment, creating its file and
// in-memory manifest entry on first use (w.mu held). The manifest is
// written at Create, on each seal, and at Close — but not per chunk
// or per segment creation: a crashed run's unsealed tail files are
// discovered by the reader's directory scan, so crash safety never
// depends on a per-append manifest rewrite.
func (w *Writer) segFor(tid int) (*openSeg, error) {
	if seg, ok := w.segs[tid]; ok {
		return seg, nil
	}
	name := fmt.Sprintf("t%d-%d.seg", tid, w.segCount[tid])
	w.segCount[tid]++
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if w.opts.SyncOnSeal {
		// Make the new directory entry durable, so a sealed-and-synced
		// segment cannot vanish with its directory entry on power loss.
		if err := syncDir(w.opts.Dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	hdr := segHeader(tid)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	seg := &openSeg{tid: tid, file: name, f: f, size: int64(len(hdr)), manIdx: len(w.man.Segments)}
	w.man.Segments = append(w.man.Segments, manifestSeg{File: name, TID: tid})
	w.segs[tid] = seg
	return seg, nil
}

// sealSeg writes the footer, optionally fsyncs, closes the file, and
// marks the in-memory manifest entry sealed (w.mu held). With
// publish, the manifest is rewritten under a bumped generation so
// live followers learn of the sealed segment without waiting for
// Close; Close passes false and publishes once for all its seals.
// Errors are sticky.
func (w *Writer) sealSeg(seg *openSeg, publish bool) {
	ftr := appendFooter(nil, seg.index)
	if _, err := seg.f.Write(ftr); err != nil {
		w.err = err
		return
	}
	if w.opts.SyncOnSeal {
		if err := seg.f.Sync(); err != nil {
			w.err = err
			return
		}
	}
	if err := seg.f.Close(); err != nil {
		w.err = err
		return
	}
	m := &w.man.Segments[seg.manIdx]
	m.Sealed = true
	m.Chunks = len(seg.index)
	m.Bytes = seg.size + int64(len(ftr))
	m.SealedAt = w.now().Unix()
	if n := len(seg.index); n > 0 {
		m.BaseN = seg.index[0].baseN
		m.LastN = seg.index[n-1].lastN
		m.FirstSeq = seg.index[0].gseq
		m.LastSeq = seg.index[n-1].gseq
	}
	delete(w.segs, seg.tid)
	w.sealed++
	if publish {
		// Retention runs at seal granularity: the manifest rewrite
		// below journals the trim (victims gone from Segments, Trimmed
		// updated) before any file is unlinked, Sia persist style.
		victims := w.retainLocked()
		// Mid-run manifests list sealed segments only, so "listed"
		// always implies "footer present": open tails stay unlisted
		// until their own seal (a follower finds them by directory
		// scan, exactly like crash recovery does).
		w.man.Generation++
		pub := w.man
		pub.Segments = make([]manifestSeg, 0, len(w.man.Segments))
		for _, ms := range w.man.Segments {
			if ms.Sealed {
				pub.Segments = append(pub.Segments, ms)
			}
		}
		if err := writeManifest(w.opts.Dir, &pub); err != nil {
			w.err = err
			return
		}
		w.unlinkLocked(victims)
	}
}

// retainLocked plans and applies Options.Retain against the in-memory
// manifest (w.mu held). It only mutates metadata; the caller must
// rewrite the manifest before passing the returned victims to
// unlinkLocked. Open segments' manifest indexes are re-pointed after
// the segment list compacts.
func (w *Writer) retainLocked() []manifestSeg {
	victims := planTrim(&w.man, w.opts.Retain, w.now())
	if len(victims) == 0 {
		return nil
	}
	removed := applyTrim(&w.man, victims)
	for i := range w.man.Segments {
		if seg, ok := w.segs[w.man.Segments[i].TID]; ok && seg.file == w.man.Segments[i].File {
			seg.manIdx = i
		}
	}
	return removed
}

// unlinkLocked deletes trimmed segment files after their removal has
// been journaled in the manifest (w.mu held — the unlinks are cheap
// and ordering them inside the lock keeps trim atomic with respect to
// a concurrent Close).
func (w *Writer) unlinkLocked(victims []manifestSeg) {
	if len(victims) == 0 {
		return
	}
	unlinkTrimmed(w.opts.Dir, victims)
	w.trimmed += uint64(len(victims))
}

// syncDir fsyncs a directory, making renames and entry creations in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close seals every open segment and writes the final manifest.
// Idempotent; returns the first sticky error.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	for _, seg := range w.segs {
		if w.err != nil {
			seg.f.Close() //scaldift:ignore lockio Close is the cold shutdown path; w.mu guards it against concurrent Append teardown
			continue
		}
		w.sealSeg(seg, false)
	}
	w.segs = nil
	w.closed = true
	if w.err == nil {
		victims := w.retainLocked()
		w.man.Closed = true
		w.man.Generation++
		w.err = writeManifest(w.opts.Dir, &w.man)
		if w.err == nil && w.opts.SyncOnSeal {
			w.err = syncDir(w.opts.Dir)
		}
		if w.err == nil {
			w.unlinkLocked(victims)
		}
	}
	return w.err
}

// Err returns the sticky I/O error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// ChunksSpilled returns the number of chunk records written.
func (w *Writer) ChunksSpilled() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chunks
}

// BytesSpilled returns the cumulative raw chunk bytes written
// (excluding framing), comparable to Compact.BytesWritten.
func (w *Writer) BytesSpilled() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// SegmentsSealed returns the number of sealed segment files.
func (w *Writer) SegmentsSealed() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealed
}

// SegmentsTrimmed returns the number of segment files retention has
// deleted.
func (w *Writer) SegmentsTrimmed() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.trimmed
}

var _ ddg.ChunkSink = (*Writer)(nil)
