package pipeline

import (
	"testing"

	"scaldift/internal/vm"
)

// TestWalkSeq drives the shared Seq-ordered window walk over hand-
// built windows. Each case lists the window's batches in emit order
// as (tid, seqs...). The walk hands over runs: each non-empty,
// single-thread and a contiguous sub-slice of one batch (aliasing the
// batch itself); concatenated, the runs visit every event exactly
// once in strictly ascending Seq; and a single-chain window yields
// one run per non-empty batch, which keeps StepBatch's loops long.
func TestWalkSeq(t *testing.T) {
	type batch struct {
		tid  int
		seqs []uint64
		sync bool
	}
	cases := []struct {
		name string
		w    []batch
	}{
		{"one chain", []batch{{0, []uint64{1, 2, 3}, false}, {0, []uint64{4, 5}, false}}},
		{"solo sync batch", []batch{{2, []uint64{41}, true}}},
		{"two chains interleaved", []batch{
			{0, []uint64{1, 4, 5}, false}, {1, []uint64{2, 3, 6}, false}}},
		{"uneven batch counts", []batch{
			{0, []uint64{1, 2}, false}, {1, []uint64{3, 9, 14}, false},
			{0, []uint64{4, 5}, false}, {0, []uint64{6, 7, 8}, false},
			{0, []uint64{10, 11, 12, 13}, false}}},
		{"empty batch mid-chain", []batch{
			{0, []uint64{2, 5}, false}, {1, []uint64{1, 3}, false},
			{0, nil, false}, {1, nil, false}, {0, []uint64{6, 8}, false}, {1, []uint64{4, 7}, false}}},
		{"empty chain", []batch{{0, nil, false}, {1, []uint64{1, 2}, false}, {2, nil, false}}},
		{"four chains, one runs last", []batch{
			{3, []uint64{20, 21, 22}, false}, {0, []uint64{1, 5, 9}, false},
			{1, []uint64{2, 6, 10}, false}, {2, []uint64{3, 7}, false},
			{1, []uint64{11, 12}, false}, {2, []uint64{13}, false}, {0, []uint64{14, 19}, false}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var w []*vm.Batch
			type slot struct{ batch, idx int }
			owner := map[*vm.Event]slot{} // every event of the window, by address
			seen := map[*vm.Event]bool{}
			tids, nonEmpty := map[int]bool{}, 0
			for bi, b := range c.w {
				vb := &vm.Batch{TID: b.tid, Sync: b.sync}
				for _, s := range b.seqs {
					vb.Events = append(vb.Events, vm.Event{TID: b.tid, Seq: s})
				}
				for i := range vb.Events {
					owner[&vb.Events[i]] = slot{bi, i}
				}
				tids[b.tid] = true
				if len(vb.Events) > 0 {
					nonEmpty++
				}
				w = append(w, vb)
			}
			var last uint64
			runs, prevEnd := 0, slot{-1, -1}
			WalkSeq(w, func(run []vm.Event) {
				runs++
				if len(run) == 0 {
					t.Fatalf("empty run after seq %d", last)
				}
				first, aliased := owner[&run[0]]
				if !aliased {
					t.Fatalf("seq %d: run is a copy, not a sub-slice of its batch", run[0].Seq)
				}
				if first == (slot{prevEnd.batch, prevEnd.idx + 1}) {
					t.Fatalf("seq %d: run continues the previous one, which was not maximal", run[0].Seq)
				}
				prevEnd = slot{first.batch, first.idx + len(run) - 1}
				for i := range run {
					ev := &run[i]
					switch at, aliased := owner[ev]; {
					case !aliased || at != (slot{first.batch, first.idx + i}):
						t.Fatalf("seq %d: run is not a contiguous sub-slice of one batch", ev.Seq)
					case ev.TID != run[0].TID:
						t.Fatalf("seq %d: run mixes tids %d and %d", ev.Seq, run[0].TID, ev.TID)
					case seen[ev]:
						t.Fatalf("seq %d visited twice", ev.Seq)
					case ev.Seq <= last:
						t.Fatalf("seq %d visited after %d", ev.Seq, last)
					}
					seen[ev], last = true, ev.Seq
				}
			})
			if len(tids) == 1 && runs != nonEmpty {
				t.Errorf("single-chain window: %d runs for %d non-empty batches", runs, nonEmpty)
			}
			for ev := range owner {
				if !seen[ev] {
					t.Errorf("seq %d (tid %d) never visited", ev.Seq, ev.TID)
				}
			}
		})
	}
}
