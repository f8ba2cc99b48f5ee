package vm

import (
	"testing"

	"scaldift/internal/isa"
)

// FuzzRecorder feeds the Recorder random synthetic event streams and
// checks it against a naive model of the one ordered stream
// internal/pipeline builds on:
//
//   - every event that is neither blocked nor dropped by the filter is
//     recorded exactly once, unchanged, and nothing else is (spawns
//     answer to the filter like any other kind);
//   - Seq ascends strictly across the concatenated batches;
//   - no batch exceeds the configured capacity and none is empty.
//
// Each fuzz input byte drives one synthetic instruction: two bits of
// thread id, one bit "blocked", a PC the filter reads with the tid,
// and a small chance of being a spawn. The first byte picks the batch
// capacity.
func FuzzRecorder(f *testing.F) {
	f.Add([]byte{4, 0x00, 0x01, 0x42, 0x13, 0x80, 0x07})
	f.Add([]byte{1, 0x80, 0x80, 0x80})                   // spawn burst
	f.Add([]byte{7, 0x10, 0x20, 0x30, 0x40, 0x0f, 0x33}) // blocked mix
	f.Add([]byte{2, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55}) // alternating
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		batchEvents := int(data[0]%7) + 1
		stream := data[1:]
		if len(stream) > 4096 {
			stream = stream[:4096]
		}

		relevant := func(ev *Event) bool { return (ev.PC+ev.TID)%2 == 0 } // drops odd-thread spawns (PC 8) too
		var batches []*Batch
		var rec *Recorder
		rec = NewRecorder(batchEvents, relevant, func(b *Batch) {
			// The recorder recycles freed batches; keep private copies
			// like a real consumer that defers work would.
			batches = append(batches, &Batch{Events: append([]Event(nil), b.Events...)})
			rec.Free(b)
		})

		// Drive the recorder the way the machine does: one reused
		// event value, global and per-thread counters advancing only
		// for non-blocked instructions.
		dummy := isa.Instr{}
		var model []Event // events the recorder must keep, in order
		var steps uint64
		tsteps := map[int]uint64{}
		var ev Event
		for _, b := range stream {
			tid := int(b & 3)
			blocked := b&0x08 != 0
			spawn := !blocked && b&0xf0 == 0x80
			pc := int(b >> 4)

			ev = Event{Kind: EvCompute, TID: tid, PC: pc, Instr: &dummy, Blocked: blocked}
			if spawn {
				ev.Kind = EvSpawn
				ev.DstVal = int64(tid + 1)
			}
			if !blocked {
				steps++
				tsteps[tid]++
			}
			ev.Seq = steps
			ev.ThreadSeq = tsteps[tid]
			rec.OnEvent(nil, &ev)
			if !blocked && relevant(&ev) {
				model = append(model, ev)
			}
		}
		rec.Flush()

		var got []Event
		for bi, b := range batches {
			if len(b.Events) == 0 {
				t.Fatalf("batch %d empty", bi)
			}
			if len(b.Events) > batchEvents {
				t.Fatalf("batch %d holds %d events, capacity %d", bi, len(b.Events), batchEvents)
			}
			got = append(got, b.Events...)
		}
		if len(got) != len(model) {
			t.Fatalf("recorded %d events, model %d", len(got), len(model))
		}
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("event %d diverged from model:\ngot  %+v\nwant %+v", i, got[i], model[i])
			}
			if i > 0 && got[i].Seq <= got[i-1].Seq {
				t.Fatalf("event %d: Seq %d after %d", i, got[i].Seq, got[i-1].Seq)
			}
		}
	})
}
