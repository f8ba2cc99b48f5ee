package ddg

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	for i := range d.recs {
		n, usePC, deps := d.record(i)
		var rlDelta uint64
		if k := len(deps) - 1; k >= 0 && deps[k].Kind == SameAs {
			rlDelta = n - deps[k].Def.N()
			deps = deps[:k]
		}
		yield(n, usePC, deps, rlDelta)
	}
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
