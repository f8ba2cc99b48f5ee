package ddg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// RefCompact is the write side of Compact as it stood before records
// were encoded in place: a fresh slice per record grown by append,
// every varint through a scratch copy, open chunks in a map, eviction
// by re-slicing the whole order list. It survives only here, as the
// oracle the new encoder must match byte for byte (wire format) and
// chunk for chunk (ring eviction). It is exported from test code so
// the external tests of this package can replay real traces into it.
type RefCompact struct {
	capBytes  int
	chunkSize int

	perTid  map[int][]*chunk
	open    map[int]*chunk
	order   []*chunk
	bytes   int
	evicted uint64

	spill ChunkSink
}

// NewRefCompact mirrors NewCompactSized plus SetSpill.
func NewRefCompact(capBytes, chunkSize int, spill ChunkSink) *RefCompact {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	return &RefCompact{
		capBytes:  capBytes,
		chunkSize: chunkSize,
		perTid:    make(map[int][]*chunk),
		open:      make(map[int]*chunk),
		spill:     spill,
	}
}

func (c *RefCompact) seal(ch *chunk) {
	ch.sealed = true
	delete(c.open, ch.tid)
	if c.spill != nil && ch.count > 0 {
		c.spill.SpillChunk(RawChunk{TID: ch.tid, BaseN: ch.baseN, LastN: ch.lastN, Count: ch.count, Buf: ch.buf})
	}
}

// Flush seals the open chunks. The original ranged over the map; the
// reference fixes the order to ascending tid so it is an oracle at all.
func (c *RefCompact) Flush() {
	tids := make([]int, 0, len(c.open))
	for tid := range c.open {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		c.seal(c.open[tid])
	}
}

// Append is the reference encoder (refAppend): the old Append body,
// unchanged.
func (c *RefCompact) Append(use ID, usePC int32, deps []Dep, rlDelta uint64) {
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
	rec = refAppendUvarint(rec, tmp[:], n-prev)
	rec = refAppendUvarint(rec, tmp[:], uint64(usePC))
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
			rec = refAppendUvarint(rec, tmp[:], (n-d.Def.N())<<1)
		} else {
			rec = refAppendUvarint(rec, tmp[:], uint64(d.Def)<<1|1)
		}
		rec = refAppendUvarint(rec, tmp[:], uint64(d.DefPC))
	}
	if ctrl != nil {
		rec = refAppendUvarint(rec, tmp[:], n-ctrl.Def.N())
		rec = refAppendUvarint(rec, tmp[:], uint64(ctrl.DefPC))
	}
	if rlDelta != 0 {
		rec = refAppendUvarint(rec, tmp[:], rlDelta)
	}

	ch.buf = append(ch.buf, rec...)
	ch.lastN = n
	ch.count++
	c.bytes += len(rec)
	if len(ch.buf) >= c.chunkSize {
		c.seal(ch)
	}
	c.evict()
}

func (c *RefCompact) evict() {
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
	}
}

func refAppendUvarint(dst, scratch []byte, v uint64) []byte {
	k := binary.PutUvarint(scratch, v)
	return append(dst, scratch[:k]...)
}

// Records calls yield with each decoded record in n-ascending order,
// splitting the SameAs marker back out into Append's rlDelta, so a
// decoded chunk can be replayed into an encoder.
func (d *Decoded) Records(yield func(n uint64, usePC int32, deps []Dep, rlDelta uint64)) {
	for _, r := range d.recs {
		var deps []Dep
		d.Each(r.n, func(dep Dep) { deps = append(deps, dep) })
		var rlDelta uint64
		if k := len(deps) - 1; k >= 0 && deps[k].Kind == SameAs {
			rlDelta = r.n - deps[k].Def.N()
			deps = deps[:k]
		}
		yield(r.n, r.usePC, deps, rlDelta)
	}
}

// RefDecoded is a chunk as Decode materialized it before lookups
// decoded from the body: every dependence in one []Dep arena and an
// n-ascending index of the records into it. RefDecode survives only
// here, as the oracle the compact form must match: Decode accepts and
// rejects exactly the bodies RefDecode does, and Decoded.Each and
// UsePC answer every lookup as its Deps does.
type RefDecoded struct {
	recs []refRec
	deps []Dep
}

// refRec indexes one record: its dependences are deps[off : next
// record's off].
type refRec struct {
	n     uint64
	off   uint32
	usePC int32
}

// RefDecode is the arena decoder, unchanged but for its types.
func RefDecode(rc RawChunk) (*RefDecoded, error) {
	if uint64(len(rc.Buf)) > math.MaxUint32 || rc.BaseN > maxN {
		return nil, malformed(0, "header out of range")
	}
	nRecs, nDeps := 0, 0
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
		nDeps += pairs + rl
	}
	if nRecs != rc.Count {
		return nil, fmt.Errorf("%w: header counts %d records, body holds %d", errMalformed, rc.Count, nRecs)
	}

	recs, deps := make([]refRec, nRecs), make([]Dep, nDeps)
	n, nRecs, nDeps := rc.BaseN, 0, 0
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
		c.pos++
		if flags&^(flagData|flagCtrl|flagRL) != 0 {
			return nil, malformed(at, "unknown flag bits")
		}
		use := MakeID(rc.TID, n)
		recs[nRecs] = refRec{n: n, off: uint32(nDeps), usePC: usePC}
		nRecs++
		for i := flags & flagData; i > 0; i-- {
			enc, defPC := c.uvarint(), c.pc()
			var def ID
			if enc&1 == 1 {
				def = ID(enc >> 1)
				c.bad = c.bad || def.TID() == rc.TID
			} else {
				def = MakeID(rc.TID, n-enc>>1)
				c.bad = c.bad || (n-def.N())<<1 != enc
			}
			deps[nDeps] = Dep{Use: use, UsePC: usePC, Def: def, DefPC: defPC, Kind: Data}
			nDeps++
		}
		if flags&flagCtrl != 0 {
			delta, defPC := c.uvarint(), c.pc()
			def := MakeID(rc.TID, n-delta)
			c.bad = c.bad || n-def.N() != delta
			deps[nDeps] = Dep{Use: use, UsePC: usePC, Def: def, DefPC: defPC, Kind: Control}
			nDeps++
		}
		if flags&flagRL != 0 {
			delta := c.uvarint()
			def := MakeID(rc.TID, n-delta)
			c.bad = c.bad || delta == 0 || n-def.N() != delta
			deps[nDeps] = Dep{Use: use, UsePC: usePC, Def: def, DefPC: usePC, Kind: SameAs}
			nDeps++
		}
		if c.bad {
			return nil, malformed(at, "bad dependence field")
		}
	}
	return &RefDecoded{recs: recs, deps: deps}, nil
}

// Deps returns the dependences of instance n; nil when the chunk
// holds no record for n.
func (d *RefDecoded) Deps(n uint64) []Dep {
	i := sort.Search(len(d.recs), func(i int) bool { return d.recs[i].n >= n })
	if i == len(d.recs) || d.recs[i].n != n {
		return nil
	}
	end := uint32(len(d.deps))
	if i+1 < len(d.recs) {
		end = d.recs[i+1].off
	}
	return d.deps[d.recs[i].off:end:end]
}

// DiffDecoded reports the first lookup on which d and the reference
// disagree: the records they index, and the dependences (order
// included) and use PC of every recorded instance and of the
// instances on either side of it.
func DiffDecoded(d *Decoded, ref *RefDecoded) error {
	if len(d.recs) != len(ref.recs) {
		return fmt.Errorf("%d records, reference %d", len(d.recs), len(ref.recs))
	}
	var got []Dep
	collect := func(dep Dep) { got = append(got, dep) }
	for i, r := range ref.recs {
		if d.recs[i].n != r.n {
			return fmt.Errorf("record %d is instance %d, reference %d", i, d.recs[i].n, r.n)
		}
		for _, n := range []uint64{r.n - 1, r.n, r.n + 1} {
			got = got[:0]
			d.Each(n, collect)
			want := ref.Deps(n)
			if !slices.Equal(got, want) {
				return fmt.Errorf("instance %d: deps %+v, reference %+v", n, got, want)
			}
			pc, ok := d.UsePC(n)
			if wantOK := len(want) > 0; ok != wantOK || (ok && pc != want[0].UsePC) {
				return fmt.Errorf("instance %d: UsePC (%d, %v), reference %+v", n, pc, ok, want)
			}
		}
	}
	return nil
}

// DiffChunks reports the first difference between two chunk streams,
// field for field and byte for byte.
func DiffChunks(got, want []RawChunk) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d chunks, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TID != w.TID || g.BaseN != w.BaseN || g.LastN != w.LastN || g.Count != w.Count || !bytes.Equal(g.Buf, w.Buf) {
			return fmt.Errorf("chunk %d: got tid %d [%d,%d] ×%d %x\nwant tid %d [%d,%d] ×%d %x",
				i, g.TID, g.BaseN, g.LastN, g.Count, g.Buf, w.TID, w.BaseN, w.LastN, w.Count, w.Buf)
		}
	}
	return nil
}
