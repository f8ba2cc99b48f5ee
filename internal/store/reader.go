package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"scaldift/internal/ddg"
)

// ReaderOptions tunes a Reader.
type ReaderOptions struct {
	// CacheChunks bounds the decoded-chunk cache per thread (default
	// 8 chunks, matching Compact's in-memory cache): slicing over a
	// store far larger than RAM keeps only this working set decoded.
	CacheChunks int
	// Follow attaches to a store whose writer may still be running:
	// an unclosed manifest means "live", not crash damage, and Poll
	// picks up newly landed chunks, new segments, and the final
	// close. The reader's windows are then a monotone frontier — the
	// prefix of each thread's stream that has durably landed — rather
	// than the whole recorded range.
	Follow bool
	// Pins, when shared with the writer's Retention, advertises which
	// segment file this follower currently holds an open tail fd for,
	// so retention never unlinks it out from under the scan. Only
	// meaningful in follow mode; nil is fine for stores without
	// retention.
	Pins *PinSet
}

// Reader reopens a store directory as a ddg.Source. Opening reads
// the manifest and lists the directory (segments created since the
// last manifest write are discovered by scan); each thread's chunk
// index loads lazily on first access (sealed segments via their
// footer, unsealed or damaged segments via a CRC-checked prefix
// scan), and chunk payloads load and decode on demand through a
// bounded per-thread cache. No file handles are held between calls,
// so a store of many thousands of segments never exhausts the fd
// limit.
//
// With ReaderOptions.Follow, the reader attaches to a store that is
// still recording: Window reports the frontier of CRC-valid chunks
// on disk, and Poll advances it incrementally — only bytes past the
// last known-good offset of each tail segment are re-read.
//
// Reads are safe for concurrent use: threads are sharded into
// independently locked states, so slicing.ParallelBackward's workers
// proceed in parallel as long as they touch different threads. Poll
// may run concurrently with queries (it is serialized against
// itself).
type Reader struct {
	dir  string
	opts ReaderOptions

	pollMu sync.Mutex // serializes Poll

	mu         sync.Mutex
	threads    map[int]*threadState
	tids       []int
	known      map[string]bool // segment basenames already adopted
	live       bool
	generation uint64
	recovered  bool
	trimLo     map[int]uint64 // per-tid retention floor from the manifest
	err        error          // first unexpected I/O error (not crash damage)

	tailScanned atomic.Int64 // bytes read by incremental tail scans
}

// threadState is one thread's lazily loaded index and cache.
type threadState struct {
	tid       int
	mu        sync.Mutex
	segs      []readerSeg
	loaded    bool
	nextSeg   int      // first segment not yet fully indexed
	segOff    int64    // scan resume offset in segs[nextSeg] (0 = header unread)
	segChunks int      // chunks already indexed from segs[nextSeg]
	chunks    []tChunk // across segments, ascending baseN
	cache     map[int]*ddg.Decoded
	fifo      []int
	// Negative entries (structurally damaged chunks) live in their own
	// bounded set so a burst of damage can never FIFO-evict healthy
	// decoded chunks out of cache.
	neg     map[int]bool
	negFifo []int
	// epoch fences in-flight chunk loads across index rewrites: a
	// retention prune rewrites ts.chunks, so a loader that released
	// ts.mu before the prune must not cache its result under a stale
	// index.
	epoch int
	// Follow mode caches the open tail segment's fd across polls (and
	// pins its file against retention) instead of reopening it once per
	// poll; closed again the moment the segment completes or the store
	// flips live→closed, so a non-live reader is always fd-free
	// between calls.
	tailF    *os.File
	tailFile string // basename pinned in ReaderOptions.Pins
}

// closeTail drops the cached tail fd and its retention pin, if any
// (ts.mu held).
func (ts *threadState) closeTail(pins *PinSet) {
	if ts.tailF == nil {
		return
	}
	ts.tailF.Close()
	ts.tailF = nil
	pins.Unpin(ts.tailFile)
	ts.tailFile = ""
}

// readerSeg is one segment file of a thread.
type readerSeg struct {
	path    string
	file    string // basename
	seq     int    // per-thread creation index from the filename
	sealed  bool   // manifest says sealed (footer expected)
	trimmed bool   // retention deleted it; skip, don't treat as crash loss
}

// tChunk locates one chunk for a thread.
type tChunk struct {
	seg int // index into threadState.segs
	chunkMeta
}

// errDamage marks on-disk corruption (vs an environmental I/O
// error): callers degrade to recovery instead of surfacing it.
var errDamage = errors.New("store: damaged chunk")

// Open opens the store at dir for reading. Without Follow the writer
// must have been closed (or have crashed): segment files the
// manifest never listed and unsealed tails are recovered up to their
// last intact chunk. With Follow, an unclosed store is live and the
// same prefix is the current frontier, advanced by Poll.
func Open(dir string, opts ReaderOptions) (*Reader, error) {
	if opts.CacheChunks <= 0 {
		opts.CacheChunks = 8
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		dir:        dir,
		opts:       opts,
		threads:    make(map[int]*threadState),
		known:      make(map[string]bool),
		live:       opts.Follow && !man.Closed,
		generation: man.Generation,
		trimLo:     make(map[int]uint64),
	}
	minSeq := make(map[int]int)
	for _, tr := range man.Trimmed {
		minSeq[tr.TID] = tr.MinSeq
		r.trimLo[tr.TID] = tr.Lo
	}
	addSeg := func(tid, seq int, file string, sealed bool) {
		ts, ok := r.threads[tid]
		if !ok {
			ts = &threadState{tid: tid}
			r.threads[tid] = ts
			r.tids = append(r.tids, tid)
		}
		ts.segs = append(ts.segs, readerSeg{
			path:   filepath.Join(dir, file),
			file:   file,
			seq:    seq,
			sealed: sealed,
		})
	}
	for _, ms := range man.Segments {
		tid, seq, ok := parseSegName(ms.File)
		if !ok || tid != ms.TID {
			tid, seq = ms.TID, len(r.known)
		}
		r.known[ms.File] = true
		addSeg(tid, seq, ms.File, ms.Sealed)
	}
	// Directory scan: segments created since the last manifest write
	// are on disk but not yet listed (and a crashed run never gets to
	// list its tail at all).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if r.known[name] {
			continue
		}
		if tid, seq, ok := parseSegName(name); ok {
			r.known[name] = true
			if seq < minSeq[tid] {
				// A stray below the thread's trim floor is a crash
				// orphan: retention journaled its deletion in the
				// manifest but died before the unlink. Its chunks are
				// officially trimmed — adopting it would resurrect them.
				continue
			}
			addSeg(tid, seq, name, false)
		}
	}
	if !man.Closed && !opts.Follow {
		// Cold-opening an unclosed store is crash recovery: the
		// reader serves the longest valid prefix of whatever landed.
		r.recovered = true
	}
	for _, ts := range r.threads {
		sort.Slice(ts.segs, func(i, j int) bool { return ts.segs[i].seq < ts.segs[j].seq })
	}
	sort.Ints(r.tids)
	return r, nil
}

// parseSegName decodes a t<tid>-<seq>.seg segment filename.
func parseSegName(name string) (tid, seq int, ok bool) {
	var tail string
	if n, err := fmt.Sscanf(name, "t%d-%d.seg%s", &tid, &seq, &tail); err == nil && n == 3 {
		return 0, 0, false // trailing garbage
	} else if n, err := fmt.Sscanf(name, "t%d-%d.seg", &tid, &seq); err != nil || n != 2 {
		return 0, 0, false
	}
	return tid, seq, tid >= 0 && seq >= 0
}

// Close releases any cached tail fds (follow mode holds one per
// thread while the store is live) and their retention pins. A
// non-follow reader holds no handles between calls, so Close is then
// a no-op; either way the reader stays usable for queries afterwards
// (the next access reopens what it needs).
func (r *Reader) Close() error {
	for _, ts := range r.allThreads() {
		ts.mu.Lock()
		ts.closeTail(r.opts.Pins)
		ts.mu.Unlock()
	}
	return nil
}

// TrimmedLo returns tid's retention floor: every instance below it
// may have been deleted by retention, so a slice that walks past the
// floor reports truncation exactly like the old in-memory ring did at
// its window edge. ok is false when the thread has never been
// trimmed.
func (r *Reader) TrimmedLo(tid int) (lo uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo, ok = r.trimLo[tid]
	return lo, ok
}

// Trimmed returns a copy of every thread's retention floor (empty
// when the store has never been trimmed).
func (r *Reader) Trimmed() map[int]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.trimLo) == 0 {
		return nil
	}
	out := make(map[int]uint64, len(r.trimLo))
	for tid, lo := range r.trimLo {
		out[tid] = lo
	}
	return out
}

// Recovered reports whether any segment accessed so far was truncated
// or corrupt and served a recovered prefix instead of its full index.
// A live follower does not count the in-flight tail as recovery.
func (r *Reader) Recovered() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovered
}

// Live reports whether the reader is following a writer that has not
// closed yet. It transitions to false on the Poll that observes the
// final manifest.
func (r *Reader) Live() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// Generation returns the last manifest generation the reader
// observed. The writer bumps it on every seal and at close, so an
// unchanged generation means the segment roster is unchanged (tail
// chunks may still have landed — only Poll detects those).
func (r *Reader) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// Err returns the first unexpected I/O error (permissions, fd
// limits, read failures on intact files). Crash damage — missing,
// truncated, or corrupt segments — is NOT an error: it is reported
// through Recovered.
func (r *Reader) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Reader) markRecovered() {
	r.mu.Lock()
	r.recovered = true
	r.mu.Unlock()
}

func (r *Reader) markErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.recovered = true
	r.mu.Unlock()
}

func (r *Reader) isLive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// thread returns tid's state under r.mu (Poll may grow the map
// concurrently with queries).
func (r *Reader) thread(tid int) *threadState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.threads[tid]
}

// allThreads snapshots every thread state in tid order.
func (r *Reader) allThreads() []*threadState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*threadState, 0, len(r.tids))
	for _, tid := range r.tids {
		out = append(out, r.threads[tid])
	}
	return out
}

// Poll re-examines a live store: it re-reads the manifest (a bumped
// generation means segments sealed or the writer closed), discovers
// newly created segment files, and extends each thread's index by
// scanning only bytes past the previous frontier. It reports whether
// anything advanced — new chunks landed, or the store transitioned
// to closed. On a reader that is not live, Poll is a no-op.
func (r *Reader) Poll() (advanced bool, err error) {
	r.pollMu.Lock()
	defer r.pollMu.Unlock()

	r.mu.Lock()
	wasLive := r.live
	r.mu.Unlock()
	if !wasLive {
		return false, nil
	}

	man, err := readManifest(r.dir)
	if err != nil {
		return false, err
	}
	//scaldift:ignore lockio pollMu only single-flights Poll itself; the read path locks ts.mu, never this
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return false, err
	}
	sealedNow := make(map[string]bool)
	for _, ms := range man.Segments {
		if ms.Sealed {
			sealedNow[ms.File] = true
		}
	}
	minSeq := make(map[int]int)
	for _, tr := range man.Trimmed {
		minSeq[tr.TID] = tr.MinSeq
	}

	// Adopt newly appeared segments (manifest-listed and strays).
	// The writer names segments with monotonically increasing
	// per-thread seqs, so sorting the batch keeps each thread's segs
	// slice ordered without disturbing existing entries (indexed
	// chunks hold positions into it).
	type newSeg struct {
		tid, seq int
		file     string
		sealed   bool
	}
	var fresh []newSeg
	r.mu.Lock()
	for _, ms := range man.Segments {
		if r.known[ms.File] {
			continue
		}
		tid, seq, ok := parseSegName(ms.File)
		if !ok || tid != ms.TID {
			tid, seq = ms.TID, len(r.known)
		}
		r.known[ms.File] = true
		fresh = append(fresh, newSeg{tid, seq, ms.File, ms.Sealed})
	}
	for _, e := range entries {
		name := e.Name()
		if r.known[name] {
			continue
		}
		if tid, seq, ok := parseSegName(name); ok {
			r.known[name] = true
			if seq < minSeq[tid] {
				continue // trim orphan awaiting unlink, not new data
			}
			fresh = append(fresh, newSeg{tid, seq, name, false})
		}
	}
	sort.Slice(fresh, func(i, j int) bool {
		if fresh[i].tid != fresh[j].tid {
			return fresh[i].tid < fresh[j].tid
		}
		return fresh[i].seq < fresh[j].seq
	})
	perTid := make(map[int][]newSeg)
	for _, ns := range fresh {
		if _, ok := r.threads[ns.tid]; !ok {
			r.threads[ns.tid] = &threadState{tid: ns.tid}
			r.tids = append(r.tids, ns.tid)
		}
		perTid[ns.tid] = append(perTid[ns.tid], ns)
	}
	sort.Ints(r.tids)
	nowLive := !man.Closed
	r.live = nowLive
	r.generation = man.Generation
	for _, tr := range man.Trimmed {
		if tr.Lo > r.trimLo[tr.TID] {
			r.trimLo[tr.TID] = tr.Lo
		}
	}
	states := make([]*threadState, 0, len(r.tids))
	for _, tid := range r.tids {
		states = append(states, r.threads[tid])
	}
	r.mu.Unlock()

	for _, ts := range states {
		ts.mu.Lock()
		for _, ns := range perTid[ts.tid] {
			ts.segs = append(ts.segs, readerSeg{
				path:   filepath.Join(r.dir, ns.file),
				file:   ns.file,
				seq:    ns.seq,
				sealed: ns.sealed,
			})
		}
		for i := ts.nextSeg; i < len(ts.segs); i++ {
			if sealedNow[ts.segs[i].file] {
				ts.segs[i].sealed = true
			}
		}
		if ts.pruneTrimmed(minSeq[ts.tid]) {
			advanced = true // the window's lo edge moved up
		}
		before := len(ts.chunks)
		if !ts.loaded {
			r.ensureLoaded(ts)
		} else {
			r.advanceThread(ts, nowLive)
		}
		if len(ts.chunks) > before {
			advanced = true
		}
		ts.mu.Unlock()
	}
	if !nowLive {
		advanced = true // live → closed is itself an advance
	}
	return advanced, nil
}

// pruneTrimmed drops segments below the thread's trim floor (ts.mu
// held): retention deleted their files, so their indexed chunks must
// leave the window rather than resurface as crash loss on the next
// read. Rewriting ts.chunks shifts every cache index, so both caches
// are dropped wholesale and the epoch fences out in-flight loaders.
func (ts *threadState) pruneTrimmed(minSeq int) (pruned bool) {
	if minSeq <= 0 {
		return false
	}
	for i := range ts.segs {
		if ts.segs[i].seq < minSeq && !ts.segs[i].trimmed {
			ts.segs[i].trimmed = true
			pruned = true
		}
	}
	if !pruned || !ts.loaded {
		return pruned
	}
	kept := ts.chunks[:0]
	for _, tc := range ts.chunks {
		if !ts.segs[tc.seg].trimmed {
			kept = append(kept, tc)
		}
	}
	if len(kept) != len(ts.chunks) {
		ts.chunks = kept
		ts.cache = make(map[int]*ddg.Decoded)
		ts.fifo = nil
		ts.neg = make(map[int]bool)
		ts.negFifo = nil
		ts.epoch++
	}
	return pruned
}

// ensureLoaded builds the thread's chunk index on first access
// (ts.mu held).
func (r *Reader) ensureLoaded(ts *threadState) {
	if ts.loaded {
		return
	}
	ts.loaded = true
	ts.cache = make(map[int]*ddg.Decoded, r.opts.CacheChunks)
	ts.neg = make(map[int]bool)
	r.advanceThread(ts, r.isLive())
}

// advanceThread indexes newly available chunks for one thread (ts.mu
// held). Sealed segments go through their footer; the unsealed tail
// is scanned incrementally from the last known-good offset, so each
// poll pays only for bytes appended since the previous one. With
// live, an incomplete tail record means "still being written" and
// the scan simply stops at the frontier; without it, the same bytes
// are crash damage and the thread recovers its valid prefix.
//
// In follow mode the open tail's fd is kept (and its file pinned
// against retention) between polls instead of reopened every time;
// the moment the segment completes — it seals, its scan finishes, or
// the store flips live→closed — the fd is closed, so only a live
// frontier ever holds descriptors.
func (r *Reader) advanceThread(ts *threadState, live bool) {
	for ts.nextSeg < len(ts.segs) {
		seg := &ts.segs[ts.nextSeg]
		if seg.trimmed {
			// Retention deleted this segment (or is about to; the
			// manifest already journaled it). Not crash loss: its
			// chunks are officially below the trim floor.
			ts.closeTail(r.opts.Pins)
			ts.finishSeg()
			continue
		}
		var f *os.File
		if ts.tailF != nil && ts.tailFile == seg.file {
			f = ts.tailF // resume the cached tail fd
		} else {
			ts.closeTail(r.opts.Pins)
			var err error
			f, err = os.Open(seg.path)
			if err != nil {
				// A missing segment is crash loss (only its own chunks
				// are gone); anything else is a real I/O problem worth
				// surfacing, not silently serving a partial graph.
				if os.IsNotExist(err) {
					r.markRecovered()
				} else {
					r.markErr(err)
				}
				ts.finishSeg()
				continue
			}
		}
		closeF := func() {
			if f == ts.tailF {
				ts.closeTail(r.opts.Pins)
			} else {
				f.Close()
			}
		}
		if seg.sealed {
			// Footer fast path. A partially scanned tail that sealed
			// between polls lands here too: the footer lists every
			// chunk, so only the suffix past segChunks is new.
			if metas, ok := readFooterIndex(f); ok {
				closeF()
				if ts.segChunks < len(metas) {
					ts.appendChunks(metas[ts.segChunks:])
				}
				ts.finishSeg()
				continue
			}
			r.markRecovered() // promised footer is gone/corrupt
		}
		metas, newOff, scanned, status := scanSegmentFrom(f, ts.segOff)
		r.tailScanned.Add(scanned)
		ts.appendChunks(metas)
		ts.segOff = newOff
		switch status {
		case scanDone:
			closeF()
			ts.finishSeg()
		case scanBoundary, scanPartial:
			if live && !seg.sealed {
				// The frontier: everything up to segOff is served; the
				// rest is still in flight. Later segments of this
				// thread cannot hold earlier instances, so stop here —
				// and keep the fd for the next poll's incremental scan.
				if ts.tailF == nil {
					ts.tailF = f
					ts.tailFile = seg.file
					r.opts.Pins.Pin(seg.file)
				}
				return
			}
			closeF()
			if status == scanPartial {
				r.markRecovered() // torn record: crash prefix
			}
			ts.finishSeg()
		case scanDamage:
			closeF()
			r.markRecovered()
			ts.finishSeg()
		}
	}
	// Every segment is fully indexed (the usual way here is the poll
	// that observed the writer's close): nothing is in flight, so the
	// thread must be fd-free again.
	ts.closeTail(r.opts.Pins)
}

// appendChunks adopts freshly indexed chunks of segs[nextSeg]
// (ts.mu held).
func (ts *threadState) appendChunks(metas []chunkMeta) {
	for _, cm := range metas {
		ts.chunks = append(ts.chunks, tChunk{seg: ts.nextSeg, chunkMeta: cm})
	}
	ts.segChunks += len(metas)
}

// finishSeg advances past the current segment (ts.mu held).
func (ts *threadState) finishSeg() {
	ts.nextSeg++
	ts.segOff = 0
	ts.segChunks = 0
}

// readFooterIndex parses a sealed segment's trailing footer block.
func readFooterIndex(f *os.File) ([]chunkMeta, bool) {
	st, err := f.Stat()
	if err != nil || st.Size() < int64(8+len(ftrMagic)) {
		return nil, false
	}
	var tail [12]byte // uint32 total length + 8-byte magic
	if _, err := f.ReadAt(tail[:], st.Size()-12); err != nil {
		return nil, false
	}
	if string(tail[4:]) != ftrMagic {
		return nil, false
	}
	total := int64(binary.LittleEndian.Uint32(tail[:4]))
	if total <= 12 || total > st.Size() {
		return nil, false
	}
	block := make([]byte, total)
	if _, err := f.ReadAt(block, st.Size()-total); err != nil {
		return nil, false
	}
	// block = 0x00 | flen | ftr | crc | len | magic
	if block[0] != 0 {
		return nil, false
	}
	flen, k := binary.Uvarint(block[1:])
	// Bounds-check before int conversion: a corrupt varint near 2^64
	// would overflow the arithmetic below into a passing guard and a
	// panicking slice expression.
	if k <= 0 || flen > uint64(len(block)) {
		return nil, false
	}
	ftrStart := 1 + k
	if ftrStart+int(flen)+4 > len(block) {
		return nil, false
	}
	ftr := block[ftrStart : ftrStart+int(flen)]
	crc := binary.LittleEndian.Uint32(block[ftrStart+int(flen):])
	if crc32.ChecksumIEEE(ftr) != crc {
		return nil, false
	}
	metas, err := parseFooter(ftr)
	if err != nil {
		return nil, false
	}
	return metas, true
}

// scanStatus reports how a segment scan ended.
type scanStatus int

const (
	scanDone     scanStatus = iota // footer sentinel: segment complete
	scanBoundary                   // clean EOF exactly at a record boundary
	scanPartial                    // EOF mid-record: in-flight write or torn tail
	scanDamage                     // definite corruption (bad magic, CRC fail, absurd framing)
)

// scanSegmentFrom parses chunk records from off (0 = start of file,
// header unread), returning their metas, the offset of the first
// unconsumed byte (always a record boundary), the number of bytes
// read, and how the scan ended. It is the incremental half of live
// tail-following: a poll resumes at the previous newOff and pays
// only for bytes appended since. scanPartial vs scanDamage is the
// load-bearing distinction — a record cut off by EOF may simply not
// have finished landing (the writer appends each record with one
// write, so a concurrent reader sees a clean prefix), while a CRC
// mismatch on a fully present record can only be corruption.
func scanSegmentFrom(f *os.File, off int64) (metas []chunkMeta, newOff int64, scanned int64, status scanStatus) {
	data, err := readAllFrom(f, off)
	scanned = int64(len(data))
	if err != nil {
		return nil, off, scanned, scanDamage
	}
	pos := int64(0)
	if off == 0 {
		n := len(data)
		if n > len(segMagic) {
			n = len(segMagic)
		}
		if string(data[:n]) != segMagic[:n] {
			return nil, 0, scanned, scanDamage
		}
		if len(data) <= len(segMagic) {
			return nil, 0, scanned, scanPartial // header not fully landed
		}
		_, k := binary.Uvarint(data[len(segMagic):])
		if k == 0 {
			return nil, 0, scanned, scanPartial
		}
		if k < 0 {
			return nil, 0, scanned, scanDamage
		}
		pos = int64(len(segMagic) + k)
	}
	for pos < int64(len(data)) {
		plen, k := binary.Uvarint(data[pos:])
		if k == 0 {
			return metas, off + pos, scanned, scanPartial // varint cut off
		}
		if k < 0 || plen >= 1<<31 {
			// Unreadable or absurd length (a corrupt varint near 2^64
			// would overflow the end arithmetic below): damage, not a
			// chunk still in flight.
			return metas, off + pos, scanned, scanDamage
		}
		if plen == 0 {
			return metas, off + pos, scanned, scanDone // footer sentinel
		}
		start := pos + int64(k)
		end := start + int64(plen) + 4
		if end > int64(len(data)) {
			return metas, off + pos, scanned, scanPartial // record cut off
		}
		payload := data[start : start+int64(plen)]
		crc := binary.LittleEndian.Uint32(data[start+int64(plen) : end])
		if crc32.ChecksumIEEE(payload) != crc {
			return metas, off + pos, scanned, scanDamage
		}
		gseq, baseN, lastN, count, _, err := parseChunkPayload(payload)
		if err != nil {
			return metas, off + pos, scanned, scanDamage
		}
		metas = append(metas, chunkMeta{
			off: off + pos, plen: int(plen),
			gseq: gseq, baseN: baseN, lastN: lastN, count: count,
		})
		pos = end
	}
	return metas, off + pos, scanned, scanBoundary
}

func readAllFrom(f *os.File, off int64) ([]byte, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// readChunk opens, reads, verifies, and decodes one chunk. It takes
// everything it needs by value so callers can run it WITHOUT ts.mu:
// chunk loads are the expensive read-side unit (file I/O + CRC +
// decode), and holding the thread lock across them would serialize
// every concurrent query touching the thread behind the disk. The
// segment file is opened and closed per load: the cache makes reloads
// rare, and the reader stays fd-free between calls.
//
//scaldift:io
func readChunk(path string, tid int, tc tChunk) (*ddg.Decoded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Skip the leading plen varint: the index records the payload
	// offset indirectly via off (start of the record) and plen.
	head := uvarintLen(uint64(tc.plen))
	payload := make([]byte, tc.plen+4)
	if _, err := f.ReadAt(payload, tc.off+int64(head)); err != nil {
		return nil, fmt.Errorf("store: chunk read: %w", err)
	}
	crc := binary.LittleEndian.Uint32(payload[tc.plen:])
	payload = payload[:tc.plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch at %s+%d", errDamage, path, tc.off)
	}
	_, baseN, lastN, count, buf, err := parseChunkPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errDamage, err)
	}
	if baseN != tc.baseN || lastN != tc.lastN {
		return nil, fmt.Errorf("%w: chunk header disagrees with index at %s+%d", errDamage, path, tc.off)
	}
	d, err := ddg.RawChunk{TID: tid, BaseN: baseN, Count: count, Buf: buf}.Decode()
	if err != nil {
		return nil, fmt.Errorf("%w: %v at %s+%d", errDamage, err, path, tc.off)
	}
	return d, nil
}

// cachePut inserts a decoded chunk (ts.mu held), evicting FIFO past
// the bound. Only healthy decoded chunks go here — negative entries
// have their own bounded set (putNegative), so damage bursts cannot
// crowd hot data out of the decode cache.
func (ts *threadState) cachePut(idx int, d *ddg.Decoded, bound int) {
	if len(ts.fifo) >= bound {
		old := ts.fifo[0]
		ts.fifo = ts.fifo[1:]
		delete(ts.cache, old)
	}
	ts.cache[idx] = d
	ts.fifo = append(ts.fifo, idx)
}

// putNegative records a negative entry for a chunk whose payload is
// structurally damaged (ts.mu held). Negatives are bounded separately
// from the decode cache: a negative costs a map slot, not a decoded
// chunk's worth of memory, and sharing the FIFO used to let a burst
// of damaged-chunk probes evict every healthy hot chunk. This is the
// ONLY sanctioned way to make a chunk invisible: callers must first
// classify the load error with errors.Is(err, errDamage) — the
// stickyerr analyzer enforces it — because negative-caching a
// transient failure (a short read racing an in-flight append, a
// momentary open error) would keep serving a hole for the chunk's
// whole instance range after the writer completes it.
func (ts *threadState) putNegative(idx int, bound int) {
	if ts.neg[idx] {
		return
	}
	if len(ts.negFifo) >= bound {
		old := ts.negFifo[0]
		ts.negFifo = ts.negFifo[1:]
		delete(ts.neg, old)
	}
	ts.neg[idx] = true
	ts.negFifo = append(ts.negFifo, idx)
}

// findChunk locates the chunk holding instance n (ts.mu held, index
// loaded).
func (ts *threadState) findChunk(n uint64) int {
	i := sort.Search(len(ts.chunks), func(i int) bool { return ts.chunks[i].lastN >= n })
	if i < len(ts.chunks) && ts.chunks[i].baseN <= n && n <= ts.chunks[i].lastN && ts.chunks[i].count > 0 {
		return i
	}
	return -1
}

// Threads implements ddg.Source.
func (r *Reader) Threads() []int {
	states := r.allThreads()
	out := make([]int, 0, len(states))
	for _, ts := range states {
		ts.mu.Lock()
		r.ensureLoaded(ts)
		n := len(ts.chunks)
		ts.mu.Unlock()
		if n > 0 {
			out = append(out, ts.tid)
		}
	}
	return out
}

// Window implements ddg.Source: the whole recovered on-disk range —
// or, on a live follower, the current frontier.
func (r *Reader) Window(tid int) (uint64, uint64) {
	ts := r.thread(tid)
	if ts == nil {
		return 0, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r.ensureLoaded(ts)
	if len(ts.chunks) == 0 {
		return 0, 0
	}
	return ts.chunks[0].baseN, ts.chunks[len(ts.chunks)-1].lastN
}

// DepsOf implements ddg.Source.
func (r *Reader) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	deps := r.depsAt(id, nil)
	for _, d := range deps {
		yield(d)
	}
}

// depsAt returns the stored deps of id (possibly nil). Chunk loads
// are charged to budget (nil: unlimited) and run with ts.mu RELEASED:
// the lock covers only index/cache state, so concurrent traversals of
// one thread overlap their I/O instead of convoying behind it. Two
// goroutines missing on the same chunk may both decode it; the second
// result is dropped in favor of the cached first — duplicate work,
// never inconsistent state.
func (r *Reader) depsAt(id ddg.ID, budget *Budget) []ddg.Dep {
	ts := r.thread(id.TID())
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	r.ensureLoaded(ts)
	idx := ts.findChunk(id.N())
	if idx < 0 {
		ts.mu.Unlock()
		return nil
	}
	if d, ok := ts.cache[idx]; ok {
		ts.mu.Unlock()
		return d.Deps(id.N())
	}
	if ts.neg[idx] {
		ts.mu.Unlock()
		return nil // known-damaged chunk
	}
	// Cache miss: snapshot what the load needs and decode outside the
	// lock. Indexed segs and chunks only ever append — except when a
	// retention prune rewrites them, which bumps ts.epoch; the epoch
	// check on re-lock keeps this loader from caching under an index
	// that moved underneath it.
	epoch := ts.epoch
	tc := ts.chunks[idx]
	path := ts.segs[tc.seg].path
	ts.mu.Unlock()

	if !budget.charge() {
		// Out of budget: behave like a dead end. The shared cache is
		// left alone so other queries are unaffected.
		return nil
	}
	d, err := readChunk(path, ts.tid, tc)
	if err != nil {
		if !errors.Is(err, errDamage) {
			// Missing files and short reads can be transient — an fs
			// blip, or a racing writer the index got ahead of — so
			// record the condition but leave the cache alone: the next
			// access retries the load instead of serving a permanent
			// hole for the chunk's whole instance range.
			if os.IsNotExist(err) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				r.markRecovered()
			} else {
				r.markErr(err)
			}
			return nil
		}
		// A chunk that indexed cleanly but fails its payload CRC, or
		// whose CRC-valid body is not one the encoder writes
		// (ddg.RawChunk.Decode returns nothing partial), is damage past
		// the index's guarantees: serve what remains.
		// Negative-cache it — without that, a slice walking the
		// hundreds of instances a damaged chunk covers would re-open,
		// re-read, and re-CRC it once per query.
		r.markRecovered()
		ts.mu.Lock()
		if ts.epoch == epoch {
			if prev, ok := ts.cache[idx]; ok {
				// Another loader raced us in: serve its entry rather
				// than overwriting it.
				ts.mu.Unlock()
				return prev.Deps(id.N())
			}
			ts.putNegative(idx, r.opts.CacheChunks)
		}
		ts.mu.Unlock()
		return nil
	}
	ts.mu.Lock()
	if ts.epoch == epoch {
		if prev, ok := ts.cache[idx]; ok {
			d = prev // another loader won the race: serve its copy
		} else {
			ts.cachePut(idx, d, r.opts.CacheChunks)
		}
	}
	ts.mu.Unlock()
	return d.Deps(id.N())
}

// NodePC implements ddg.Source (recorded nodes only).
func (r *Reader) NodePC(id ddg.ID) (int32, bool) {
	deps := r.depsAt(id, nil)
	if len(deps) == 0 {
		return 0, false
	}
	return deps[0].UsePC, true
}

// Chunks returns the total indexed chunk count (loading every
// thread's index).
func (r *Reader) Chunks() int {
	n := 0
	for _, ts := range r.allThreads() {
		ts.mu.Lock()
		r.ensureLoaded(ts)
		n += len(ts.chunks)
		ts.mu.Unlock()
	}
	return n
}

var _ ddg.Source = (*Reader)(nil)
