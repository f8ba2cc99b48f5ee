package ddg

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestDecodeMalformed: a body the encoder cannot have written is an
// error with nothing returned — it used to panic, or decode into
// invented edges.
func TestDecodeMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		rc   RawChunk
	}{
		// The three bodies of ISSUE 23: index out of range [2], two
		// fabricated edges, and a header count the body cannot back.
		{"cut after flags", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x01, 0x05}}},
		{"half a dependence", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x01, 0x05, 0x02, 0x01}}},
		{"count from nowhere", RawChunk{BaseN: 1, Count: 1 << 40, Buf: []byte{0x00, 0x05, 0x00}}},

		{"count too small", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0x05, 0x00, 0x01, 0x05, 0x00}}},
		{"empty body, one counted", RawChunk{BaseN: 1, Count: 1}},
		{"first record off BaseN", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x01, 0x05, 0x00}}},
		{"repeated instance", RawChunk{BaseN: 1, Count: 2, Buf: []byte{0x00, 0x05, 0x00, 0x00, 0x05, 0x00}}},
		{"instance past 48 bits", RawChunk{BaseN: maxN, Count: 2, Buf: []byte{0x00, 0x05, 0x00, 0x01, 0x05, 0x00}}},
		{"BaseN past 48 bits", RawChunk{BaseN: maxN + 1, Count: 1, Buf: []byte{0x00, 0x05, 0x00}}},
		{"cut inside a varint", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0x85}}},
		{"eleven-byte varint", RawChunk{BaseN: 1, Count: 1, Buf: append(bytes.Repeat([]byte{0x80}, 10), 0x01, 0x05, 0x00)}},
		{"padded varint", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0x85, 0x00, 0x00}}},
		{"PC wider than int32", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x1f, 0x00}}},
		{"unknown flag bit", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0x05, 0x20}}},
		{"def before instance 0", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0x05, 0x01, 0x06, 0x02}}},
		{"own thread written as foreign", RawChunk{TID: 0, BaseN: 9, Count: 1, Buf: []byte{0x00, 0x05, 0x01, 0x07, 0x02}}},
		{"control parent before instance 0", RawChunk{BaseN: 1, Count: 1, Buf: []byte{0x00, 0x05, 0x08, 0x02, 0x02}}},
		{"zero redundant-load distance", RawChunk{BaseN: 5, Count: 1, Buf: []byte{0x00, 0x05, 0x10, 0x00}}},
	} {
		d, err := tc.rc.Decode()
		if err == nil || d != nil {
			t.Errorf("%s: Decode = (%v, %v), want (nil, error)", tc.name, d, err)
		} else if !errors.Is(err, errMalformed) {
			t.Errorf("%s: error %v does not wrap errMalformed", tc.name, err)
		}
	}

	// The empty chunk is well-formed.
	if d, err := (RawChunk{BaseN: 1}).Decode(); err != nil || len(d.recs) != 0 || d.find(1) >= 0 {
		t.Fatalf("empty chunk: (%v, %v)", d, err)
	}
}

// randomStream appends a pseudo-random multi-thread record stream —
// same- and cross-thread data dependences (forward same-thread ones
// too: they wrap, and the format round-trips them), control parents,
// redundant-load markers, empty records, and the odd record with more
// data dependences than the flag field counts — to every given
// encoder in lockstep.
func randomStream(rng *rand.Rand, threads, records int, appendTo ...func(ID, int32, []Dep, uint64)) {
	next := make([]uint64, threads)
	for i := 0; i < records; i++ {
		tid := rng.Intn(threads)
		next[tid] += 1 + uint64(rng.Intn(3))
		n := next[tid]
		use, usePC := MakeID(tid, n), int32(rng.Intn(300))
		var deps []Dep
		nData := rng.Intn(4)
		if rng.Intn(50) == 0 {
			nData = 9 // overflows the three-bit count; both encoders must agree anyway
		}
		for j := 0; j < nData; j++ {
			def := MakeID(rng.Intn(threads), 1+uint64(rng.Intn(int(n)+2)))
			if rng.Intn(20) == 0 {
				def = MakeID(rng.Intn(threads), 1<<40+uint64(rng.Intn(1000)))
			}
			deps = append(deps, Dep{Use: use, UsePC: usePC, Def: def, DefPC: int32(rng.Intn(70000)), Kind: Data})
		}
		if n > 1 && rng.Intn(3) == 0 {
			deps = append(deps, Dep{Use: use, UsePC: usePC, Def: MakeID(tid, n-1-uint64(rng.Intn(int(n)-1))), DefPC: int32(rng.Intn(300)), Kind: Control})
		}
		var rlDelta uint64
		if n > 1 && rng.Intn(4) == 0 {
			rlDelta = 1 + uint64(rng.Intn(int(n)-1))
		}
		for _, f := range appendTo {
			f(use, usePC, append([]Dep(nil), deps...), rlDelta)
		}
	}
}

// TestAppendMatchesReference: the in-place encoder writes the bytes
// the reference encoder writes, in the chunks it cuts, and evicts the
// chunks it evicts, at every chunk size and ring capacity.
func TestAppendMatchesReference(t *testing.T) {
	for _, chunkSize := range []int{1, 64, 4096} {
		for _, capBytes := range []int{0, 600, 20000} {
			var got, want collectSink
			c := NewCompactSized(capBytes, chunkSize)
			c.SetSpill(&got)
			ref := NewRefCompact(capBytes, chunkSize, &want)
			const threads = 5
			step := 0
			randomStream(rand.New(rand.NewSource(int64(chunkSize+capBytes))), threads, 6000,
				c.Append, ref.Append,
				func(ID, int32, []Dep, uint64) {
					// The ring retains exactly what the reference retains.
					if step++; step%97 != 0 && capBytes != 600 {
						return
					}
					if c.CurrentBytes() != ref.bytes || c.EvictedChunks() != ref.evicted {
						t.Fatalf("step %d: ring holds %d bytes after %d evictions, reference %d after %d",
							step, c.CurrentBytes(), c.EvictedChunks(), ref.bytes, ref.evicted)
					}
					for tid := 0; tid < threads; tid++ {
						var wlo, whi uint64
						if lst := ref.perTid[tid]; len(lst) > 0 {
							wlo, whi = lst[0].baseN, lst[len(lst)-1].lastN
						}
						if lo, hi := c.Window(tid); lo != wlo || hi != whi {
							t.Fatalf("step %d: tid %d window [%d,%d], reference [%d,%d]", step, tid, lo, hi, wlo, whi)
						}
					}
				})
			c.Flush()
			ref.Flush()
			if err := DiffChunks(got.chunks, want.chunks); err != nil {
				t.Fatalf("chunk size %d, capacity %d: %v", chunkSize, capBytes, err)
			}
			if capBytes == 600 && c.EvictedChunks() == 0 {
				t.Fatal("the ring never evicted — vacuous")
			}
		}
	}
}

// TestFlushAscendingTID: Flush seals in thread order, whatever order
// the threads first appended in.
func TestFlushAscendingTID(t *testing.T) {
	var sink collectSink
	c := NewCompact(0)
	c.SetSpill(&sink)
	for _, tid := range []int{7, 2, 9, 0, 4} {
		c.Append(MakeID(tid, 1), 3, nil, 0)
	}
	c.Flush()
	var tids []int
	for _, rc := range sink.chunks {
		tids = append(tids, rc.TID)
	}
	if want := []int{0, 2, 4, 7, 9}; !slices.Equal(tids, want) {
		t.Fatalf("flushed %v, want %v", tids, want)
	}
}

// TestAppendAllocs: a record costs no allocation; opening a chunk
// costs two (the chunk and its buffer) plus the amortized doubling of
// the two lists that hold it.
func TestAppendAllocs(t *testing.T) {
	c := NewCompact(0)
	n := uint64(0)
	deps := make([]Dep, 3)
	one := func() {
		n++
		use := MakeID(0, n)
		deps[0] = Dep{Use: use, UsePC: 5, Def: MakeID(0, n-1), DefPC: 4, Kind: Data}
		deps[1] = Dep{Use: use, UsePC: 5, Def: MakeID(1, 77), DefPC: 9, Kind: Data}
		deps[2] = Dep{Use: use, UsePC: 5, Def: MakeID(0, n-1), DefPC: 2, Kind: Control}
		c.Append(use, 5, deps, 1)
	}
	one() // opens the chunk
	if a := testing.AllocsPerRun(100, one); a != 0 {
		t.Fatalf("Append into an open chunk allocates %v times per record", a)
	}

	const records = 50000
	var chunks uint64
	a := testing.AllocsPerRun(1, func() {
		var sink collectCount
		c = NewCompact(0)
		c.SetSpill(&sink)
		n = 0
		for i := 0; i < records; i++ {
			one()
		}
		c.Flush()
		chunks = uint64(sink)
	})
	if chunks < 50 {
		t.Fatalf("only %d chunks — vacuous", chunks)
	}
	if limit := float64(2*chunks + 2*uint64(bits.Len64(chunks)) + 8); a > limit {
		t.Fatalf("%d records in %d chunks cost %v allocations, want <= %v", records, chunks, a, limit)
	}
}

type collectCount uint64

func (s *collectCount) SpillChunk(RawChunk) { *s++ }

// TestDecodeAllocs: decoding allocates the same two objects — the
// record index and its header — whether the chunk holds ten records
// or a thousand.
func TestDecodeAllocs(t *testing.T) {
	chunkOf := func(records int) RawChunk {
		var sink collectSink
		c := NewCompactSized(0, 1<<16)
		c.SetSpill(&sink)
		for n := uint64(1); n <= uint64(records); n++ {
			use := MakeID(0, n)
			c.Append(use, 5, []Dep{{Use: use, UsePC: 5, Def: MakeID(0, n-1), DefPC: 4, Kind: Data}}, 0)
		}
		c.Flush()
		return sink.chunks[0]
	}
	allocs := func(rc RawChunk) float64 {
		return testing.AllocsPerRun(20, func() {
			if d, err := rc.Decode(); err != nil || len(d.recs) != rc.Count {
				t.Fatalf("Decode: %v", err)
			}
		})
	}
	small, large := allocs(chunkOf(10)), allocs(chunkOf(1000))
	if small != large || large > 2 {
		t.Fatalf("Decode allocates %v times for 10 records, %v for 1000; want equal and <= 2", small, large)
	}
}

// replay re-encodes a decoded chunk through Append and returns the
// one chunk that makes.
func replay(tid int, d *Decoded, size int) RawChunk {
	var sink collectSink
	c := NewCompactSized(0, size+1) // an open chunk preallocates its size: no larger than needed

	c.SetSpill(&sink)
	d.Records(func(n uint64, usePC int32, deps []Dep, rlDelta uint64) {
		c.Append(MakeID(tid, n), usePC, deps, rlDelta)
	})
	c.Flush()
	if len(sink.chunks) == 0 {
		return RawChunk{}
	}
	return sink.chunks[0]
}

// FuzzChunkDecode feeds Decode arbitrary bodies. It must never panic,
// must return nothing alongside an error, must accept exactly the
// bodies the arena decoder it replaced (RefDecode) accepts and answer
// every lookup as that one does, and whatever it accepts is exactly
// what Append writes for the records it returned.
func FuzzChunkDecode(f *testing.F) {
	f.Add([]byte{0x01, 0x05}, uint8(0), uint64(1), uint16(1))
	f.Add([]byte{0x01, 0x05, 0x02, 0x01}, uint8(0), uint64(1), uint16(1))
	f.Add([]byte{0x00, 0x05, 0x00}, uint8(0), uint64(1), uint16(1))
	f.Add([]byte{0x00, 0x05, 0x19, 0x02, 0x04, 0x03, 0x02, 0x01, 0x02, 0x05, 0x1a, 0x13, 0x09, 0x04, 0x01, 0x02, 0x03}, uint8(2), uint64(40), uint16(2))
	{
		var sink collectSink
		c := NewCompact(0)
		c.SetSpill(&sink)
		randomStream(rand.New(rand.NewSource(1)), 1, 40, c.Append)
		c.Flush()
		rc := sink.chunks[0]
		f.Add(rc.Buf, uint8(rc.TID), rc.BaseN, uint16(rc.Count))
	}
	f.Fuzz(func(t *testing.T, buf []byte, tid uint8, baseN uint64, count uint16) {
		rc := RawChunk{TID: int(tid), BaseN: baseN, Count: int(count), Buf: buf}
		d, err := rc.Decode()
		ref, refErr := RefDecode(rc)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, arena decoder %v: they must accept the same bodies", err, refErr)
		}
		if err != nil {
			if d != nil {
				t.Fatalf("Decode returned records alongside %v", err)
			}
			return
		}
		if err := DiffDecoded(d, ref); err != nil {
			t.Fatalf("lookup differs from the arena decoder: %v", err)
		}
		if len(d.recs) != rc.Count {
			t.Fatalf("decoded %d records, header counts %d", len(d.recs), rc.Count)
		}
		if rc.Count == 0 {
			return
		}
		if again := replay(rc.TID, d, len(buf)); again.BaseN != rc.BaseN || again.Count != rc.Count || !bytes.Equal(again.Buf, buf) {
			t.Fatalf("accepted body is not what Append writes:\n body %x\nagain %x (BaseN %d, Count %d)", buf, again.Buf, again.BaseN, again.Count)
		}
	})
}
