package store

import (
	"fmt"
	"testing"

	"scaldift/internal/ddg"
)

// FuzzCompactRoundTrip drives arbitrary append streams through
// Compact → seal → spill → Writer → reopen, holding the reopened
// store to a Full-graph model of exactly what was appended: Threads,
// Window, NodePC, and every record's dependence list byte-for-byte
// (same order, same fields). Chunk and segment geometry come from the
// fuzzer too, so seams land everywhere.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(16), uint16(128))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x41, 0x41, 0x41, 0x41}, uint8(1), uint16(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(200), uint16(4096))

	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint8, segBytes uint16) {
		dir := t.TempDir()
		w, err := Create(Options{Dir: dir, SegmentBytes: int(segBytes)})
		if err != nil {
			t.Fatal(err)
		}
		buf := ddg.NewCompactSized(0, int(chunkSize))
		buf.SetSpill(w)
		model := ddg.NewFull()

		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		var counts [3]uint64 // per-tid instance counters (Full is dense)
		for pos < len(data) {
			tid := int(next() % 3)
			counts[tid]++
			n := counts[tid]
			use := ddg.MakeID(tid, n)
			usePC := int32(next()%251) + 1

			// Up to 7 data deps (the record flag field's limit), at
			// most one control dep, sometimes a redundant-load delta.
			var deps []ddg.Dep
			nData := int(next() % 8)
			for i := 0; i < nData; i++ {
				sel := next()
				var def ddg.ID
				if sel%2 == 0 && n > 1 {
					delta := 1 + uint64(next())%(n-1)
					def = ddg.MakeID(tid, n-delta)
				} else {
					def = ddg.MakeID(int(sel%3), 1+uint64(next()))
				}
				deps = append(deps, ddg.Dep{Use: use, UsePC: usePC,
					Def: def, DefPC: int32(next()%249) + 1, Kind: ddg.Data})
			}
			if next()%4 == 0 && n > 1 {
				delta := 1 + uint64(next())%(n-1)
				deps = append(deps, ddg.Dep{Use: use, UsePC: usePC,
					Def: ddg.MakeID(tid, n-delta), DefPC: int32(next()%249) + 1, Kind: ddg.Control})
			}
			var rlDelta uint64
			if next()%5 == 0 && n > 1 {
				rlDelta = 1 + uint64(next())%(n-1)
			}
			// Every node enters the model (Full is dense); only nodes
			// with a record enter the compact stream, like the tracer.
			model.AddNode(use, usePC)
			if len(deps) == 0 && rlDelta == 0 {
				continue
			}

			buf.Append(use, usePC, deps, rlDelta)
			// The model stores what decode must yield: data deps in
			// order, then the control dep, then the SameAs marker.
			for _, d := range deps {
				if d.Kind == ddg.Data {
					model.AddDep(d)
				}
			}
			for _, d := range deps {
				if d.Kind == ddg.Control {
					model.AddDep(d)
				}
			}
			if rlDelta != 0 {
				model.AddDep(ddg.Dep{Use: use, UsePC: usePC,
					Def: ddg.MakeID(tid, n-rlDelta), DefPC: usePC, Kind: ddg.SameAs})
			}
		}
		buf.Flush()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Open(dir, ReaderOptions{Cache: NewChunkCache(2 << 10)})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Recovered() {
			t.Fatal("clean store reported recovery")
		}

		// The store records only nodes with deps (the tracer's
		// contract), so its thread set is a subset of the model's and
		// its per-thread window must span exactly the recorded range.
		modelTids := make(map[int]bool)
		for _, tid := range model.Threads() {
			modelTids[tid] = true
		}
		for _, tid := range r.Threads() {
			if !modelTids[tid] {
				t.Fatalf("store invented thread %d", tid)
			}
		}
		for _, tid := range model.Threads() {
			mlo, mhi := model.Window(tid)
			var wantLo, wantHi uint64 // recorded range in the model
			for n := mlo; n <= mhi; n++ {
				if len(depsOf(model, ddg.MakeID(tid, n))) > 0 {
					if wantLo == 0 {
						wantLo = n
					}
					wantHi = n
				}
			}
			slo, shi := r.Window(tid)
			if slo != wantLo || shi != wantHi {
				t.Fatalf("tid %d: store window [%d,%d], recorded range [%d,%d]",
					tid, slo, shi, wantLo, wantHi)
			}
			for n := mlo; n <= mhi; n++ {
				id := ddg.MakeID(tid, n)
				want := depsOf(model, id)
				got := depsOf(r, id)
				if len(want) == 0 {
					if len(got) != 0 {
						t.Fatalf("store invented deps for %v: %+v", id, got)
					}
					continue
				}
				if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
					t.Fatalf("deps of %v:\nmodel %+v\nstore %+v", id, want, got)
				}
				pc, ok := r.NodePC(id)
				if !ok || pc != want[0].UsePC {
					t.Fatalf("NodePC of %v = (%d,%v), want %d", id, pc, ok, want[0].UsePC)
				}
			}
		}
	})
}
