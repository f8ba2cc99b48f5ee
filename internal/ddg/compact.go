package ddg

import (
	"encoding/binary"
	"sort"
)

// Compact is the delta/varint-encoded dependence store. It is
// single-writer and its reads share an unguarded decode cache, so one
// goroutine at a time may touch it (slice it with workers <= 1).
// Records are appended per thread into ~4KB chunks; when a byte
// capacity is set, the oldest sealed chunks are evicted ring-buffer
// style — this is ONTRAC's fixed-size circular trace buffer, whose
// capacity bounds the execution-history window usable for slicing.
//
// With a ChunkSink attached (SetSpill), every chunk is handed to the
// sink the moment it seals, before eviction can touch it: the cap
// then bounds only the in-memory working set, and the spilled stream
// (internal/store) retains the whole execution.
//
// Only instruction instances with at least one stored dependence (or
// a redundant-load marker) produce a record; the optimizations in
// internal/ontrac elide the rest, which is where the bytes-per-
// instruction savings come from.
type Compact struct {
	capBytes  int
	chunkSize int

	perTid  map[int][]*chunk
	open    map[int]*chunk
	order   []*chunk // global append order for eviction
	bytes   int
	written uint64 // cumulative bytes ever appended
	records uint64
	deps    uint64
	evicted uint64 // chunks dropped
	spilled uint64 // chunks handed to the spill sink

	spill ChunkSink

	cache map[*chunk]map[uint64][]Dep
}

// RawChunk is one sealed chunk in wire form: the per-thread
// delta/varint byte stream plus the metadata needed to decode it.
// The Buf of a sealed chunk is immutable, so sinks may retain it
// without copying.
type RawChunk struct {
	TID   int
	BaseN uint64 // useN of the first record
	LastN uint64 // useN of the last record
	Count int    // records in the chunk
	Buf   []byte
}

// ChunkSink receives sealed chunks as they close. A Compact calls its
// sink synchronously from Append and Flush, i.e. from its one writer
// goroutine, so a sink fed by a single Compact sees no concurrent
// SpillChunk calls. store.Writer keeps every lock it has all the
// same: Close, retention trims and live followers still race the
// spilling goroutine.
type ChunkSink interface {
	SpillChunk(ch RawChunk)
}

type chunk struct {
	tid    int
	baseN  uint64 // useN of the first record
	lastN  uint64 // useN of the last record
	buf    []byte
	count  int
	sealed bool
}

// NewCompact creates a compact store with the 4KB default chunk size.
// capBytes <= 0 means unbounded (no eviction).
func NewCompact(capBytes int) *Compact { return NewCompactSized(capBytes, 0) }

// NewCompactSized creates a compact store with an explicit chunk
// size (chunkSize <= 0 selects the 4KB default). Small chunk sizes
// exist for tests that exercise chunk-seam behavior and for spill
// workloads that want finer-grained segments.
func NewCompactSized(capBytes, chunkSize int) *Compact {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	return &Compact{
		capBytes:  capBytes,
		chunkSize: chunkSize,
		perTid:    make(map[int][]*chunk),
		open:      make(map[int]*chunk),
		cache:     make(map[*chunk]map[uint64][]Dep),
	}
}

// SetSpill attaches the sink that receives every chunk sealed from
// now on. Attach it before the first Append: chunks sealed earlier
// are not retroactively spilled.
func (c *Compact) SetSpill(s ChunkSink) { c.spill = s }

// seal closes a chunk: no more appends land in it, eviction may drop
// it, and the spill sink (if any) receives it first.
func (c *Compact) seal(ch *chunk) {
	ch.sealed = true
	delete(c.open, ch.tid)
	if c.spill != nil && ch.count > 0 {
		c.spill.SpillChunk(RawChunk{TID: ch.tid, BaseN: ch.baseN, LastN: ch.lastN, Count: ch.count, Buf: ch.buf})
		c.spilled++
	}
}

// Flush seals every open chunk (spilling each to the attached sink),
// so the spilled stream covers the whole recorded execution. Call it
// once at the end of a run; records appended afterwards start fresh
// chunks.
func (c *Compact) Flush() {
	for _, ch := range c.open {
		c.seal(ch)
	}
}

// Append stores one record: instance use at usePC with the given
// dependences (Data and Control kinds; Def of a Control dep must be
// in the same thread). rlDelta, when non-zero, stores a redundant-
// load marker pointing rlDelta instances back to the previous
// instance of the same static load.
func (c *Compact) Append(use ID, usePC int32, deps []Dep, rlDelta uint64) {
	tid := use.TID()
	n := use.N()
	ch := c.open[tid]
	if ch == nil {
		ch = &chunk{tid: tid, baseN: n}
		c.open[tid] = ch
		c.perTid[tid] = append(c.perTid[tid], ch)
		c.order = append(c.order, ch)
	}
	var tmp [10]byte
	var rec []byte
	// useDelta from previous record in this chunk.
	prev := ch.lastN
	if ch.count == 0 {
		prev = ch.baseN
	}
	rec = appendUvarint(rec, tmp[:], n-prev)
	rec = appendUvarint(rec, tmp[:], uint64(usePC))
	nData := 0
	var ctrl *Dep
	for i := range deps {
		switch deps[i].Kind {
		case Control:
			ctrl = &deps[i]
		default:
			nData++
		}
	}
	flags := byte(nData)
	if ctrl != nil {
		flags |= 1 << 3
	}
	if rlDelta != 0 {
		flags |= 1 << 4
	}
	rec = append(rec, flags)
	for i := range deps {
		d := &deps[i]
		if d.Kind == Control {
			continue
		}
		if d.Def.TID() == tid {
			rec = appendUvarint(rec, tmp[:], (n-d.Def.N())<<1)
		} else {
			rec = appendUvarint(rec, tmp[:], uint64(d.Def)<<1|1)
		}
		rec = appendUvarint(rec, tmp[:], uint64(d.DefPC))
	}
	if ctrl != nil {
		rec = appendUvarint(rec, tmp[:], n-ctrl.Def.N())
		rec = appendUvarint(rec, tmp[:], uint64(ctrl.DefPC))
	}
	if rlDelta != 0 {
		rec = appendUvarint(rec, tmp[:], rlDelta)
	}

	ch.buf = append(ch.buf, rec...)
	ch.lastN = n
	ch.count++
	c.bytes += len(rec)
	c.written += uint64(len(rec))
	c.records++
	c.deps += uint64(len(deps))
	if len(ch.buf) >= c.chunkSize {
		c.seal(ch)
	}
	c.evict()
}

// evict drops the oldest sealed chunks while over capacity.
func (c *Compact) evict() {
	if c.capBytes <= 0 {
		return
	}
	for c.bytes > c.capBytes {
		// Find the oldest sealed chunk.
		idx := -1
		for i, ch := range c.order {
			if ch.sealed {
				idx = i
				break
			}
		}
		if idx < 0 {
			return // only open chunks remain
		}
		ch := c.order[idx]
		c.order = append(c.order[:idx:idx], c.order[idx+1:]...)
		lst := c.perTid[ch.tid]
		for i, e := range lst {
			if e == ch {
				c.perTid[ch.tid] = append(lst[:i:i], lst[i+1:]...)
				break
			}
		}
		c.bytes -= len(ch.buf)
		c.evicted++
		delete(c.cache, ch)
	}
}

// appendUvarint appends v to dst using scratch.
func appendUvarint(dst, scratch []byte, v uint64) []byte {
	k := binary.PutUvarint(scratch, v)
	return append(dst, scratch[:k]...)
}

// Decode materializes the chunk's records into a use-N-keyed
// dependence map. It is the one decoder for the compact wire format:
// Compact uses it for in-memory chunks and internal/store for chunks
// reloaded from segment files, so the two can never drift.
func (rc RawChunk) Decode() map[uint64][]Dep {
	m := make(map[uint64][]Dep, rc.Count)
	buf := rc.Buf
	pos := 0
	read := func() uint64 {
		v, k := binary.Uvarint(buf[pos:])
		pos += k
		return v
	}
	n := rc.BaseN
	first := true
	for pos < len(buf) {
		delta := read()
		if first {
			n = rc.BaseN + delta
			first = false
		} else {
			n += delta
		}
		usePC := int32(read())
		flags := buf[pos]
		pos++
		nData := int(flags & 7)
		hasCtrl := flags&(1<<3) != 0
		hasRL := flags&(1<<4) != 0
		use := MakeID(rc.TID, n)
		var deps []Dep
		for i := 0; i < nData; i++ {
			enc := read()
			defPC := int32(read())
			var def ID
			if enc&1 == 1 {
				def = ID(enc >> 1)
			} else {
				def = MakeID(rc.TID, n-enc>>1)
			}
			deps = append(deps, Dep{Use: use, UsePC: usePC, Def: def, DefPC: defPC, Kind: Data})
		}
		if hasCtrl {
			delta := read()
			defPC := int32(read())
			deps = append(deps, Dep{Use: use, UsePC: usePC,
				Def: MakeID(rc.TID, n-delta), DefPC: defPC, Kind: Control})
		}
		if hasRL {
			delta := read()
			deps = append(deps, Dep{Use: use, UsePC: usePC,
				Def: MakeID(rc.TID, n-delta), DefPC: usePC, Kind: SameAs})
		}
		m[n] = deps
	}
	return m
}

// decode materializes a chunk's records into a use-N-keyed map. Only
// sealed (immutable) chunks enter the cache: caching an open chunk
// would hide records appended to it after the first query.
func (c *Compact) decode(ch *chunk) map[uint64][]Dep {
	if m, ok := c.cache[ch]; ok {
		return m
	}
	m := RawChunk{TID: ch.tid, BaseN: ch.baseN, Count: ch.count, Buf: ch.buf}.Decode()
	if !ch.sealed {
		return m
	}
	if len(c.cache) >= 8 {
		for k := range c.cache {
			delete(c.cache, k)
			break
		}
	}
	c.cache[ch] = m
	return m
}

// find locates the chunk holding instance n for a thread.
func (c *Compact) find(tid int, n uint64) *chunk {
	lst := c.perTid[tid]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].lastN >= n })
	if i < len(lst) && lst[i].baseN <= n && n <= lst[i].lastN && lst[i].count > 0 {
		return lst[i]
	}
	return nil
}

// DepsOf implements Source.
func (c *Compact) DepsOf(id ID, yield func(Dep)) {
	ch := c.find(id.TID(), id.N())
	if ch == nil {
		return
	}
	for _, d := range c.decode(ch)[id.N()] {
		yield(d)
	}
}

// NodePC implements Source (recorded nodes only).
func (c *Compact) NodePC(id ID) (int32, bool) {
	ch := c.find(id.TID(), id.N())
	if ch == nil {
		return 0, false
	}
	deps := c.decode(ch)[id.N()]
	if len(deps) == 0 {
		return 0, false
	}
	return deps[0].UsePC, true
}

// Threads implements Source.
func (c *Compact) Threads() []int {
	out := make([]int, 0, len(c.perTid))
	for tid := range c.perTid {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// Window implements Source: [oldest retained record, newest record].
func (c *Compact) Window(tid int) (uint64, uint64) {
	lst := c.perTid[tid]
	if len(lst) == 0 || lst[0].count == 0 {
		return 0, 0
	}
	last := lst[len(lst)-1]
	if last.count == 0 && len(lst) > 1 {
		last = lst[len(lst)-2]
	}
	return lst[0].baseN, last.lastN
}

// CurrentBytes returns the retained encoded size.
func (c *Compact) CurrentBytes() int { return c.bytes }

// BytesWritten returns cumulative bytes ever encoded (pre-eviction),
// the numerator of the bytes-per-instruction metric.
func (c *Compact) BytesWritten() uint64 { return c.written }

// Records returns the number of stored records.
func (c *Compact) Records() uint64 { return c.records }

// Deps returns the number of stored dependences.
func (c *Compact) Deps() uint64 { return c.deps }

// EvictedChunks returns how many chunks the ring dropped.
func (c *Compact) EvictedChunks() uint64 { return c.evicted }

// SpilledChunks returns how many sealed chunks went to the sink.
func (c *Compact) SpilledChunks() uint64 { return c.spilled }

var _ Source = (*Compact)(nil)
