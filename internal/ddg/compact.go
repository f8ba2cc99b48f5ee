package ddg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"
)

// Compact is the delta/varint-encoded dependence store. It is
// single-writer and its reads share an unguarded decode cache, so one
// goroutine at a time may touch it (slice it with workers <= 1).
// Records are appended per thread into ~4KB chunks; when a byte
// capacity is set, the oldest sealed chunks are evicted ring-buffer
// style — this is ONTRAC's fixed-size circular trace buffer, whose
// capacity bounds the execution-history window usable for slicing.
//
// A record is encoded straight into its thread's open chunk, whose
// buffer is allocated once, when the chunk opens, with room for
// chunkSize bytes plus one maximal record — so Append allocates only
// when it opens a chunk, never per record.
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

	threads []threadChunks // indexed by tid
	order   []*chunk       // retained chunks, oldest first, for eviction
	bytes   int
	written uint64 // cumulative bytes ever appended
	records uint64
	deps    uint64
	evicted uint64 // chunks dropped
	spilled uint64 // chunks handed to the spill sink

	spill ChunkSink

	cache map[*chunk]*Decoded
}

// threadChunks is one thread's retained chunks, oldest first, the
// last of which may still be open.
type threadChunks struct {
	chunks []*chunk
	open   *chunk
	seen   bool // ever appended to (Threads lists it even once evicted empty)
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

// maxRecordBytes bounds one encoded record whose data dependences fit
// the flag byte's three-bit count: use delta and PC, the flag byte,
// seven (def, PC) pairs, the control pair and the redundant-load
// delta, every varint at its ten-byte worst.
const maxRecordBytes = 10 + 10 + 1 + 7*(10+10) + (10 + 10) + 10

// NewCompact creates a compact store with the 4KB default chunk size.
// capBytes <= 0 means unbounded (no eviction).
func NewCompact(capBytes int) *Compact { return NewCompactSized(capBytes, 0) }

// NewCompactSized creates a compact store with an explicit chunk
// size (chunkSize <= 0 selects the 4KB default). Small chunk sizes
// exist for tests that exercise chunk-seam behavior and for spill
// workloads that want finer-grained segments; every open chunk holds
// a buffer of this size from its first record on.
func NewCompactSized(capBytes, chunkSize int) *Compact {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	return &Compact{
		capBytes:  capBytes,
		chunkSize: chunkSize,
		cache:     make(map[*chunk]*Decoded),
	}
}

// SetSpill attaches the sink that receives every chunk sealed from
// now on. Attach it before the first Append: chunks sealed earlier
// are not retroactively spilled.
func (c *Compact) SetSpill(s ChunkSink) { c.spill = s }

// seal closes a chunk: no more appends land in it (its buffer is
// immutable from here on), eviction may drop it, and the spill sink
// (if any) receives it first.
func (c *Compact) seal(ch *chunk) {
	ch.sealed = true
	c.threads[ch.tid].open = nil
	if c.spill != nil {
		c.spill.SpillChunk(RawChunk{TID: ch.tid, BaseN: ch.baseN, LastN: ch.lastN, Count: ch.count, Buf: ch.buf})
		c.spilled++
	}
}

// Flush seals every open chunk in ascending thread order (spilling
// each to the attached sink), so the spilled stream covers the whole
// recorded execution and two recordings of one schedule spill the
// same chunk sequence. Call it once at the end of a run; records
// appended afterwards start fresh chunks.
func (c *Compact) Flush() {
	for tid := range c.threads {
		if ch := c.threads[tid].open; ch != nil {
			c.seal(ch)
		}
	}
}

// openChunk starts tid's next chunk at instance n. This is the one
// place Append allocates: the chunk and its buffer.
func (c *Compact) openChunk(tid int, n uint64) *chunk {
	for tid >= len(c.threads) {
		c.threads = append(c.threads, threadChunks{})
	}
	ch := &chunk{tid: tid, baseN: n, lastN: n, buf: make([]byte, 0, c.chunkSize+maxRecordBytes)}
	th := &c.threads[tid]
	th.seen = true
	th.open = ch
	th.chunks = append(th.chunks, ch)
	c.order = append(c.order, ch)
	return ch
}

// Append stores one record: instance use at usePC with the given
// dependences (Data and Control kinds; Def of a Control dep must be
// in the same thread). rlDelta, when non-zero, stores a redundant-
// load marker pointing rlDelta instances back to the previous
// instance of the same static load.
func (c *Compact) Append(use ID, usePC int32, deps []Dep, rlDelta uint64) {
	tid := use.TID()
	n := use.N()
	var ch *chunk
	if tid < len(c.threads) {
		ch = c.threads[tid].open
	}
	if ch == nil {
		ch = c.openChunk(tid, n)
	}
	start := len(ch.buf)
	// useDelta from the previous record in this chunk (0 for the first).
	buf := binary.AppendUvarint(ch.buf, n-ch.lastN)
	buf = binary.AppendUvarint(buf, uint64(usePC))
	flagAt := len(buf)
	buf = append(buf, 0) // patched once the dependences are counted
	nData := 0
	var ctrl *Dep
	for i := range deps {
		d := &deps[i]
		if d.Kind == Control {
			ctrl = d
			continue
		}
		nData++
		if d.Def.TID() == tid {
			buf = binary.AppendUvarint(buf, (n-d.Def.N())<<1)
		} else {
			buf = binary.AppendUvarint(buf, uint64(d.Def)<<1|1)
		}
		buf = binary.AppendUvarint(buf, uint64(d.DefPC))
	}
	flags := byte(nData)
	if ctrl != nil {
		flags |= flagCtrl
		buf = binary.AppendUvarint(buf, n-ctrl.Def.N())
		buf = binary.AppendUvarint(buf, uint64(ctrl.DefPC))
	}
	if rlDelta != 0 {
		flags |= flagRL
		buf = binary.AppendUvarint(buf, rlDelta)
	}
	buf[flagAt] = flags

	ch.buf = buf
	ch.lastN = n
	ch.count++
	c.bytes += len(buf) - start
	c.written += uint64(len(buf) - start)
	c.records++
	c.deps += uint64(len(deps))
	if len(buf) >= c.chunkSize {
		c.seal(ch)
	}
	if c.capBytes > 0 && c.bytes > c.capBytes {
		c.evict()
	}
}

// evict drops the oldest sealed chunks while over capacity. A sealed
// chunk is the oldest of its own thread (its predecessors sealed, and
// so left, before it), and the only chunks ahead of it in order are
// other threads' open ones — at most one per thread — which slide
// back over the hole, keeping their relative order.
func (c *Compact) evict() {
	for c.bytes > c.capBytes {
		idx := 0
		for idx < len(c.order) && !c.order[idx].sealed {
			idx++
		}
		if idx == len(c.order) {
			return // only open chunks remain
		}
		ch := c.order[idx]
		copy(c.order[1:idx+1], c.order[:idx])
		c.order[0] = nil
		c.order = c.order[1:]
		th := &c.threads[ch.tid]
		th.chunks[0] = nil // == ch
		th.chunks = th.chunks[1:]
		c.bytes -= len(ch.buf)
		c.evicted++
		delete(c.cache, ch)
	}
}

// Decoded is a chunk in lookup form: its validated body plus an
// n-ascending index of its records, 16 bytes each. A record's
// dependences are decoded from the body on every lookup (Each, UsePC),
// so a decoded chunk costs its wire bytes and its index rather than a
// materialized Dep per dependence, and a whole trace can stay
// resident. Decoding allocates the index and this header however many
// records the chunk holds; the body is the RawChunk's own Buf, which
// is immutable. A Decoded is immutable once built and safe to share.
type Decoded struct {
	tid  int
	body []byte
	recs []decodedRec
}

// decodedRec indexes one record: its instance number, the offset of
// its flag byte in the body, and its PC.
type decodedRec struct {
	n     uint64
	off   uint32
	usePC int32
}

// Bytes returns the memory the decoded chunk holds: its body, its
// index and its header.
func (d *Decoded) Bytes() int {
	return cap(d.body) + cap(d.recs)*int(unsafe.Sizeof(decodedRec{})) + int(unsafe.Sizeof(*d))
}

// Each calls yield with every dependence of instance n: data in stored
// order, then control, then the SameAs marker. It yields nothing when
// the chunk holds no record for n. Decode validated every field, so
// the walk checks nothing.
func (d *Decoded) Each(n uint64, yield func(Dep)) {
	i := d.find(n)
	if i < 0 {
		return
	}
	r, body := d.recs[i], d.body
	use, p := MakeID(d.tid, n), int(r.off)+1
	flags := body[r.off]
	var enc, defPC uint64
	for k := flags & flagData; k > 0; k-- {
		enc, p = uvarintAt(body, p)
		defPC, p = uvarintAt(body, p)
		def := MakeID(d.tid, n-enc>>1)
		if enc&1 == 1 {
			def = ID(enc >> 1)
		}
		yield(Dep{Use: use, UsePC: r.usePC, Def: def, DefPC: int32(defPC), Kind: Data})
	}
	if flags&flagCtrl != 0 {
		enc, p = uvarintAt(body, p)
		defPC, p = uvarintAt(body, p)
		yield(Dep{Use: use, UsePC: r.usePC, Def: MakeID(d.tid, n-enc), DefPC: int32(defPC), Kind: Control})
	}
	if flags&flagRL != 0 {
		enc, _ = uvarintAt(body, p)
		yield(Dep{Use: use, UsePC: r.usePC, Def: MakeID(d.tid, n-enc), DefPC: r.usePC, Kind: SameAs})
	}
}

// UsePC returns the PC of instance n's record. ok is false when the
// chunk holds no record for n, or holds one that stores no dependence:
// such a record names no node of the graph.
func (d *Decoded) UsePC(n uint64) (pc int32, ok bool) {
	i := d.find(n)
	if i < 0 || d.body[d.recs[i].off] == 0 {
		return 0, false
	}
	return d.recs[i].usePC, true
}

// uvarintAt reads the varint at body[p], which Decode validated, and
// returns it with the offset just past it.
func uvarintAt(body []byte, p int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		b := body[p]
		p++
		if b < 0x80 {
			return v | uint64(b)<<s, p
		}
		v |= uint64(b&0x7f) << s
	}
}

// find returns the index of instance n's record, or -1.
//
// Instance numbers ascend strictly, so record i holds at least
// recs[0].n+i and n's record sits at or before index n-recs[0].n —
// exactly there when every instance since the chunk began stored a
// record, close by when most did. The search gallops back from that
// guess, then bisects the bracket it found.
func (d *Decoded) find(n uint64) int {
	recs := d.recs
	if len(recs) == 0 || n < recs[0].n {
		return -1
	}
	lo := int(min(n-recs[0].n, uint64(len(recs)-1)))
	hi := lo
	for step := 1; recs[lo].n > n; step <<= 1 {
		hi, lo = lo, max(lo-step, 0)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].n < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if recs[lo].n != n {
		return -1
	}
	return lo
}

// errMalformed is the root of every Decode error.
var errMalformed = errors.New("ddg: malformed chunk")

func malformed(pos int, what string) error {
	return fmt.Errorf("%w: %s at byte %d", errMalformed, what, pos)
}

// maxN is the largest instance number an ID can carry.
const maxN = 1<<48 - 1

// cursor reads a chunk body. A read that fails sets bad and consumes
// nothing, so a record's fields can be read in a row and checked once.
type cursor struct {
	buf []byte
	pos int
	bad bool
}

// uvarint reads one canonical varint; cut short, overflowing 64 bits
// or carrying a redundant trailing zero byte (which the encoder never
// writes), it is bad.
func (c *cursor) uvarint() uint64 {
	if c.pos < len(c.buf) && c.buf[c.pos] < 0x80 {
		c.pos++
		return uint64(c.buf[c.pos-1])
	}
	v, k := binary.Uvarint(c.buf[c.pos:])
	if k <= 0 || c.buf[c.pos+k-1] == 0 {
		c.bad = true
		return 0
	}
	c.pos += k
	return v
}

// pc reads a PC field: the varint of a sign-extended int32.
func (c *cursor) pc() int32 {
	v := c.uvarint()
	if uint64(int32(v)) != v {
		c.bad = true
	}
	return int32(v)
}

// skip steps over n varints without decoding them, reporting whether
// all n end inside the body.
func (c *cursor) skip(n int) bool {
	for ; n > 0 && c.pos < len(c.buf); c.pos++ {
		if c.buf[c.pos] < 0x80 {
			n--
		}
	}
	return n == 0
}

// Record flag byte: the data-dependence count in the low three bits,
// then the control-dependence and redundant-load-marker bits.
const (
	flagData = 7
	flagCtrl = 1 << 3
	flagRL   = 1 << 4
)

// Decode validates the chunk and indexes its records. It is the one
// decoder for the compact wire format: Compact uses it for in-memory
// chunks and internal/store for chunks reloaded from segment files, so
// the two can never drift.
//
// Buf is untrusted — a CRC-valid file written by anything can reach
// here — so Decode accepts exactly the bytes Append writes for the
// records it indexes, and nothing else. A short, overflowing or
// non-canonical varint, a record running past the end of Buf, unknown
// flag bits, a first record not at BaseN, instance numbers that do
// not strictly ascend, a field Append would have encoded differently
// for the value it decodes to, or a Count that disagrees with the
// records present all return an error and no records. Memory is
// bounded by len(Buf), never by a header field: a first pass frames
// the records and counts them, a second checks every field and fills
// the exactly sized index.
func (rc RawChunk) Decode() (*Decoded, error) {
	if uint64(len(rc.Buf)) > math.MaxUint32 || rc.BaseN > maxN {
		return nil, malformed(0, "header out of range")
	}
	nRecs := 0
	for c := (cursor{buf: rc.Buf}); c.pos < len(c.buf); nRecs++ {
		if !c.skip(2) || c.pos == len(c.buf) { // useDelta, usePC, then flags
			return nil, malformed(c.pos, "truncated record")
		}
		flags := c.buf[c.pos]
		c.pos++
		pairs, rl := int(flags&flagData)+int(flags&flagCtrl>>3), int(flags&flagRL>>4)
		if !c.skip(2*pairs + rl) {
			return nil, malformed(c.pos, "truncated record")
		}
	}
	if nRecs != rc.Count {
		return nil, fmt.Errorf("%w: header counts %d records, body holds %d", errMalformed, rc.Count, nRecs)
	}

	// The framing pass found every field's terminating byte, so from
	// here a read fails only on a varint that is too long or not
	// canonical, and the flag byte is always in range. Every field is
	// read and checked; only the record heads are kept.
	recs := make([]decodedRec, nRecs)
	n, nRecs := rc.BaseN, 0
	for c := (cursor{buf: rc.Buf}); c.pos < len(c.buf); {
		at := c.pos
		delta, usePC := c.uvarint(), c.pc()
		if c.bad {
			return nil, malformed(at, "bad record head")
		}
		if (delta == 0) != (nRecs == 0) || delta > maxN-n {
			return nil, malformed(at, "instance numbers do not ascend from BaseN")
		}
		n += delta
		flags := c.buf[c.pos]
		if flags&^(flagData|flagCtrl|flagRL) != 0 {
			return nil, malformed(at, "unknown flag bits")
		}
		recs[nRecs] = decodedRec{n: n, off: uint32(c.pos), usePC: usePC}
		nRecs++
		c.pos++
		for i := flags & flagData; i > 0; i-- {
			enc := c.uvarint()
			c.pc()
			if enc&1 == 1 {
				c.bad = c.bad || ID(enc>>1).TID() == rc.TID
			} else {
				c.bad = c.bad || (n-MakeID(rc.TID, n-enc>>1).N())<<1 != enc
			}
		}
		if flags&flagCtrl != 0 {
			delta := c.uvarint()
			c.pc()
			c.bad = c.bad || n-MakeID(rc.TID, n-delta).N() != delta
		}
		if flags&flagRL != 0 {
			delta := c.uvarint()
			c.bad = c.bad || delta == 0 || n-MakeID(rc.TID, n-delta).N() != delta
		}
		if c.bad {
			return nil, malformed(at, "bad dependence field")
		}
	}
	return &Decoded{tid: rc.TID, body: rc.Buf, recs: recs}, nil
}

// decode returns a chunk in lookup form. Only sealed (immutable)
// chunks enter the cache: caching an open chunk would hide records
// appended to it after the first query.
func (c *Compact) decode(ch *chunk) *Decoded {
	if d, ok := c.cache[ch]; ok {
		return d
	}
	d, err := RawChunk{TID: ch.tid, BaseN: ch.baseN, Count: ch.count, Buf: ch.buf}.Decode()
	if err != nil {
		panic(fmt.Sprintf("ddg: Compact cannot decode its own chunk: %v", err))
	}
	if !ch.sealed {
		return d
	}
	if len(c.cache) >= 8 {
		for k := range c.cache {
			delete(c.cache, k)
			break
		}
	}
	c.cache[ch] = d
	return d
}

// find locates the chunk holding instance n for a thread.
func (c *Compact) find(tid int, n uint64) *chunk {
	if uint(tid) >= uint(len(c.threads)) {
		return nil
	}
	lst := c.threads[tid].chunks
	i := sort.Search(len(lst), func(i int) bool { return lst[i].lastN >= n })
	if i < len(lst) && lst[i].baseN <= n {
		return lst[i]
	}
	return nil
}

// lookup returns the decoded chunk holding id's record, or nil.
func (c *Compact) lookup(id ID) *Decoded {
	ch := c.find(id.TID(), id.N())
	if ch == nil {
		return nil
	}
	return c.decode(ch)
}

// DepsOf implements Source.
func (c *Compact) DepsOf(id ID, yield func(Dep)) {
	if d := c.lookup(id); d != nil {
		d.Each(id.N(), yield)
	}
}

// NodePC implements Source (recorded nodes only).
func (c *Compact) NodePC(id ID) (int32, bool) {
	if d := c.lookup(id); d != nil {
		return d.UsePC(id.N())
	}
	return 0, false
}

// Threads implements Source.
func (c *Compact) Threads() []int {
	var out []int
	for tid := range c.threads {
		if c.threads[tid].seen {
			out = append(out, tid)
		}
	}
	return out
}

// Window implements Source: [oldest retained record, newest record].
func (c *Compact) Window(tid int) (uint64, uint64) {
	if uint(tid) >= uint(len(c.threads)) {
		return 0, 0
	}
	lst := c.threads[tid].chunks
	if len(lst) == 0 {
		return 0, 0
	}
	return lst[0].baseN, lst[len(lst)-1].lastN
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
