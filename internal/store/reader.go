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
	// Cache holds the reader's decoded chunks. Readers handed the same
	// cache share its byte budget, as every reader of a query.Registry
	// does; nil gives the reader a private cache of DefaultCacheBytes.
	// A reader sharing a cache must be closed when it is done: Close
	// takes its threads and chunks out of the cache.
	Cache *ChunkCache
	// Follow attaches to a store whose writer may still be running:
	// an unclosed manifest means "live", not crash damage, and Poll
	// picks up newly landed chunks, new segments, and the final
	// close. The reader's windows are then a monotone frontier — the
	// prefix of each thread's stream that has durably landed — rather
	// than the whole recorded range.
	Follow bool
}

// Reader reopens a store directory as a ddg.Source. Opening reads
// the manifest and lists the directory (segments created since the
// last manifest write are discovered by scan); each thread's chunk
// index loads lazily on first access (sealed segments via their
// footer, unsealed or damaged segments via a CRC-checked prefix
// scan), and chunk payloads load and decode on demand into the
// reader's ChunkCache. The reader holds no file descriptor between
// calls, live or closed: every index scan and chunk load opens its
// segment and closes it before returning, so a store of many thousands
// of segments never exhausts the fd limit.
//
// With ReaderOptions.Follow, the reader attaches to a store that is
// still recording: Window reports the frontier of CRC-valid chunks
// on disk, and Poll advances it incrementally — each poll reopens a
// thread's tail segment and reads only the bytes past its last
// known-good offset. On any reader, Poll also prunes what retention
// trimmed since the last manifest it read, so one reader serves a
// store for its whole life.
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
	closed     bool           // Close ran: new threads admit nothing to the cache
	holds      holdSet        // what Hold charged (opts.Cache.mu)

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
	// cache maps an index into chunks to the thread's resident entry
	// in the reader's ChunkCache; hits and misses count its lookups
	// (written under mu, summed by ChunkCache.Stats).
	cache        map[int]*cacheEntry
	hits, misses atomic.Int64
	// Negative entries (structurally damaged chunks) live in their own
	// set, at most maxNegatives, so a burst of damage can never evict
	// healthy decoded chunks.
	neg     map[int]bool
	negFifo []int
	// epoch fences in-flight chunk loads across index rewrites: a
	// retention prune rewrites ts.chunks, so a loader that released
	// ts.mu before the prune must not cache its result under a stale
	// index.
	epoch int
	// closed is set by Reader.Close: the thread admits nothing more to
	// the cache, so a query still running on a closed reader cannot
	// leave entries behind in a shared one.
	closed bool
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
	if opts.Cache == nil {
		opts.Cache = NewChunkCache(0)
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		dir:     dir,
		opts:    opts,
		threads: make(map[int]*threadState),
		known:   make(map[string]bool),
		trimLo:  make(map[int]uint64),
		holds:   make(holdSet),
		// Cold-opening an unclosed store is crash recovery: the reader
		// serves the longest valid prefix of whatever landed.
		recovered: !man.Closed && !opts.Follow,
	}
	fresh, _ := r.adopt(man, entries)
	for tid, segs := range fresh {
		r.threads[tid].segs = segs
	}
	r.publish(man)
	return r, nil
}

// adopt registers every segment the reader has not seen yet — those
// the manifest lists, then directory strays (created since the last
// manifest write, or a crashed run's never-listed tail). A stray below
// its thread's trim floor is a crash orphan: retention journaled its
// deletion but died before the unlink, so its chunks are officially
// trimmed and adopting it would resurrect them. The new segments come
// back per thread in seq order (the writer numbers each thread's
// segments increasingly), ready to append after the ones already
// indexed; minSeq is each thread's trim floor.
func (r *Reader) adopt(man *manifest, entries []os.DirEntry) (fresh map[int][]readerSeg, minSeq map[int]int) {
	minSeq = make(map[int]int)
	for _, tr := range man.Trimmed {
		minSeq[tr.TID] = tr.MinSeq
	}
	fresh = make(map[int][]readerSeg)
	add := func(tid, seq int, file string, sealed bool) {
		fresh[tid] = append(fresh[tid], readerSeg{
			path: filepath.Join(r.dir, file), file: file, seq: seq, sealed: sealed,
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ms := range man.Segments {
		if r.known[ms.File] {
			continue
		}
		tid, seq, ok := parseSegName(ms.File)
		if !ok || tid != ms.TID {
			tid, seq = ms.TID, len(r.known)
		}
		r.known[ms.File] = true
		add(tid, seq, ms.File, ms.Sealed)
	}
	for _, e := range entries {
		name := e.Name()
		if r.known[name] {
			continue
		}
		if tid, seq, ok := parseSegName(name); ok {
			r.known[name] = true
			if seq >= minSeq[tid] {
				add(tid, seq, name, false)
			}
		}
	}
	for tid, segs := range fresh {
		sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
		if _, ok := r.threads[tid]; !ok {
			ts := &threadState{tid: tid, closed: r.closed}
			if !r.closed {
				r.opts.Cache.register(ts)
			}
			r.threads[tid] = ts
			r.tids = append(r.tids, tid)
		}
	}
	sort.Ints(r.tids)
	return fresh, minSeq
}

// publish makes man's liveness, generation and trim floors the
// reader's. Poll publishes only once every thread reflects man, so a
// caller that reads the new generation never reads the old contents.
func (r *Reader) publish(man *manifest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live = r.opts.Follow && !man.Closed
	r.generation = man.Generation
	for _, tr := range man.Trimmed {
		r.trimLo[tr.TID] = max(r.trimLo[tr.TID], tr.Lo)
	}
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

// Close releases the reader's decoded chunks and holds from its
// cache. The reader stays usable for queries afterwards, but caches no
// chunk and takes no hold again, so a query still running on it cannot
// leave entries in a shared cache.
func (r *Reader) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.opts.Cache.dropHolds(r.holds)
	for _, ts := range r.allThreads() {
		ts.mu.Lock()
		ts.closed = true
		r.opts.Cache.drop(ts)
		ts.mu.Unlock()
	}
	return nil
}

// Hold charges size bytes of memory the caller derived from the
// reader's contents, such as an index over its chunks, to the reader's
// ChunkCache, where they age in one admission order with decoded
// chunks. The cache calls drop exactly once, with no lock held, when
// it lets the bytes go: on eviction, on Close, or when Poll publishes
// a new generation. The holder must then let go of the memory too, or
// the budget no longer bounds it. The function Hold returns lets the
// bytes go early, calling drop if it has not run. Hold charges nothing
// and returns nil when size exceeds the whole budget or the reader is
// closed: the caller uses the memory once and keeps nothing.
func (r *Reader) Hold(size int64, drop func()) func() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	// Under r.mu, so a concurrent Close either sees this hold or
	// refuses it.
	let, victims := r.opts.Cache.hold(r.holds, size, drop)
	r.mu.Unlock()
	release(victims)
	return let
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

// Poll re-examines the store: it re-reads the manifest (a bumped
// generation means segments sealed, retention trimmed some, or the
// writer closed) and prunes trimmed segments from the window. On a
// live reader it also discovers newly created segment files and
// extends each thread's index by scanning only bytes past the previous
// frontier. It reports whether anything advanced — new chunks landed,
// a trim moved a window's lo edge, or the store transitioned to
// closed. On a reader that is not live, an unchanged generation
// returns at once. The new generation, liveness and trim floors are
// published only after every thread reflects them, and a new
// generation drops every Hold.
func (r *Reader) Poll() (advanced bool, err error) {
	r.pollMu.Lock()
	defer r.pollMu.Unlock()

	man, err := readManifest(r.dir)
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	wasLive, gen := r.live, r.generation
	r.mu.Unlock()
	if !wasLive && man.Generation == gen {
		return false, nil
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
	fresh, minSeq := r.adopt(man, entries)
	nowLive := r.opts.Follow && !man.Closed
	for _, ts := range r.allThreads() {
		ts.mu.Lock()
		ts.segs = append(ts.segs, fresh[ts.tid]...)
		for i := ts.nextSeg; i < len(ts.segs); i++ {
			if sealedNow[ts.segs[i].file] {
				ts.segs[i].sealed = true
			}
		}
		if ts.pruneTrimmed(minSeq[ts.tid], r.opts.Cache) {
			advanced = true // the window's lo edge moved up
		}
		before := len(ts.chunks)
		ts.loaded = true
		r.advanceThread(ts, nowLive)
		if len(ts.chunks) > before {
			advanced = true
		}
		ts.mu.Unlock()
	}
	r.publish(man)
	if man.Generation != gen {
		r.opts.Cache.dropHolds(r.holds)
	}
	if wasLive && !nowLive {
		advanced = true // live → closed is itself an advance
	}
	return advanced, nil
}

// pruneTrimmed drops segments below the thread's trim floor (ts.mu
// held): retention deleted their files, so their indexed chunks must
// leave the window rather than resurface as crash loss on the next
// read. Rewriting ts.chunks shifts every chunk index, so the thread's
// indexes are invalidated (see reindexed).
func (ts *threadState) pruneTrimmed(minSeq int, cache *ChunkCache) (pruned bool) {
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
		ts.reindexed(cache)
	}
	return pruned
}

// reindexed forgets everything keyed by chunk index (ts.mu held): the
// thread's resident chunks, its negatives, and — by bumping the epoch
// — what loads still in flight would cache.
func (ts *threadState) reindexed(cache *ChunkCache) {
	cache.drop(ts)
	ts.neg, ts.negFifo = nil, nil
	ts.epoch++
}

// ensureLoaded builds the thread's chunk index on first access
// (ts.mu held).
func (r *Reader) ensureLoaded(ts *threadState) {
	if ts.loaded {
		return
	}
	ts.loaded = true
	r.advanceThread(ts, r.Live())
}

// advanceThread indexes newly available chunks for one thread (ts.mu
// held). Sealed segments go through their footer; the unsealed tail
// is scanned incrementally from the last known-good offset, so each
// poll pays only for bytes appended since the previous one. With
// live, an incomplete tail record means "still being written" and
// the scan simply stops at the frontier; without it, the same bytes
// are crash damage and the thread recovers its valid prefix. Every
// segment is opened and closed within the call, at the frontier too.
func (r *Reader) advanceThread(ts *threadState, live bool) {
	for ts.nextSeg < len(ts.segs) {
		seg := &ts.segs[ts.nextSeg]
		if seg.trimmed {
			// Retention deleted this segment (or is about to; the
			// manifest already journaled it). Not crash loss: its
			// chunks are officially below the trim floor.
			ts.finishSeg()
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) && (live || r.trimmedAway(ts.tid, seg.seq)) {
				// Retention may have trimmed it after the manifest this
				// reader last read (a live writer's may have, unseen);
				// the next poll's manifest says so and prunes it. Stop
				// here until then.
				return
			}
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
		if seg.sealed {
			// Footer fast path. A partially scanned tail that sealed
			// between polls lands here too: the footer lists every
			// chunk, so only the suffix past segChunks is new.
			if metas, ok := readFooterIndex(f); ok {
				f.Close()
				if ts.segChunks < len(metas) {
					ts.appendChunks(metas[ts.segChunks:])
				}
				ts.finishSeg()
				continue
			}
			r.markRecovered() // promised footer is gone/corrupt
		}
		metas, newOff, scanned, status := scanSegmentFrom(f, ts.segOff)
		f.Close()
		r.tailScanned.Add(scanned)
		ts.appendChunks(metas)
		ts.segOff = newOff
		switch status {
		case scanDone:
			ts.finishSeg()
		case scanBoundary, scanPartial:
			if live && !seg.sealed {
				// The frontier: everything up to segOff is served; the
				// rest is still in flight. Later segments of this
				// thread cannot hold earlier instances, so stop here.
				return
			}
			if status == scanPartial {
				r.markRecovered() // torn record: crash prefix
			}
			ts.finishSeg()
		case scanDamage:
			r.markRecovered()
			ts.finishSeg()
		}
	}
}

// trimmedAway reports whether the store's current manifest puts tid's
// segment seq below its thread's trim floor: retention deleted it.
//
//scaldift:io
func (r *Reader) trimmedAway(tid, seq int) bool {
	man, err := readManifest(r.dir)
	if err != nil {
		return false
	}
	for _, tr := range man.Trimmed {
		if tr.TID == tid {
			return seq < tr.MinSeq
		}
	}
	return false
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

// putNegative records a negative entry for a chunk whose payload is
// structurally damaged (ts.mu held), forgetting the oldest past
// maxNegatives. Negatives are bounded apart from the chunk cache: a
// negative costs a map slot, not a decoded chunk's worth of memory,
// and sharing one bound used to let a burst of damaged-chunk probes
// evict every healthy hot chunk. This is the ONLY sanctioned way to
// make a chunk invisible: callers must first classify the load error
// with errors.Is(err, errDamage) — the stickyerr analyzer enforces it
// — because negative-caching a transient failure (a short read racing
// an in-flight append, a momentary open error) would keep serving a
// hole for the chunk's whole instance range after the writer
// completes it.
func (ts *threadState) putNegative(idx int) {
	if ts.neg[idx] {
		return
	}
	if len(ts.negFifo) >= maxNegatives {
		delete(ts.neg, ts.negFifo[0])
		ts.negFifo = ts.negFifo[1:]
	}
	if ts.neg == nil {
		ts.neg = make(map[int]bool)
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
func (r *Reader) DepsOf(id ddg.ID, yield func(ddg.Dep)) { r.depsOf(id, nil, yield) }

// NodePC implements ddg.Source (recorded nodes only).
func (r *Reader) NodePC(id ddg.ID) (int32, bool) { return r.nodePC(id, nil) }

// depsOf yields id's stored dependences, charging a chunk load to
// budget.
func (r *Reader) depsOf(id ddg.ID, budget *Budget, yield func(ddg.Dep)) {
	if d := r.chunkAt(id, budget); d != nil {
		d.Each(id.N(), yield)
	}
}

// nodePC returns id's stored PC, charging a chunk load to budget.
func (r *Reader) nodePC(id ddg.ID, budget *Budget) (int32, bool) {
	if d := r.chunkAt(id, budget); d != nil {
		return d.UsePC(id.N())
	}
	return 0, false
}

// chunkAt returns the decoded chunk holding id's record, or nil. Chunk
// loads are charged to budget (nil: unlimited) and run with ts.mu
// RELEASED: the lock covers only index and cache state, so concurrent
// traversals of one thread overlap their I/O instead of convoying
// behind it. Two goroutines missing on the same chunk may both decode
// it; the second result is dropped in favor of the cached first —
// duplicate work, never inconsistent state.
func (r *Reader) chunkAt(id ddg.ID, budget *Budget) *ddg.Decoded {
	ts := r.thread(id.TID())
	if ts == nil {
		return nil
	}
	cache := r.opts.Cache
	ts.mu.Lock()
	r.ensureLoaded(ts)
	idx := ts.findChunk(id.N())
	if idx < 0 {
		ts.mu.Unlock()
		return nil
	}
	if d := cache.get(ts, idx); d != nil {
		ts.mu.Unlock()
		return d
	}
	if ts.neg[idx] {
		ts.mu.Unlock()
		return nil // known-damaged chunk
	}
	// Cache miss: snapshot what the load needs and decode outside the
	// lock. Indexed segs and chunks only ever append — except when a
	// retention prune rewrites them, which bumps ts.epoch; fill checks
	// the epoch so this loader never caches under an index that moved
	// underneath it.
	epoch := ts.epoch
	tc := ts.chunks[idx]
	seg := ts.segs[tc.seg]
	ts.mu.Unlock()

	if !budget.charge() {
		// Out of budget: behave like a dead end. The shared cache is
		// left alone so other queries are unaffected.
		return nil
	}
	d, err := readChunk(seg.path, ts.tid, tc)
	if err != nil {
		if os.IsNotExist(err) && r.trimmedAway(ts.tid, seg.seq) {
			// Retention trimmed the segment after the manifest this
			// reader last read: not crash loss, and the next Poll
			// prunes it from the window.
			return nil
		}
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
			if e := ts.cache[idx]; e != nil {
				// Another loader raced us in: serve its entry rather
				// than hiding the chunk.
				ts.mu.Unlock()
				return e.d
			}
			ts.putNegative(idx)
		}
		ts.mu.Unlock()
		return nil
	}
	return cache.fill(ts, idx, epoch, d)
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
