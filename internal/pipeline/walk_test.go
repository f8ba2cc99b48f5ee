package pipeline

import (
	"testing"

	"scaldift/internal/vm"
)

// TestWalkSeq drives the shared Seq-ordered window walk over hand-
// built windows. Each case lists the window's batches in emit order
// as (tid, seqs...); the walk must visit every event exactly once, in
// strictly ascending Seq, through a pointer into the batch itself.
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
			owner := map[*vm.Event]bool{} // every event of the window, by address
			for _, b := range c.w {
				vb := &vm.Batch{TID: b.tid, Sync: b.sync}
				for _, s := range b.seqs {
					vb.Events = append(vb.Events, vm.Event{TID: b.tid, Seq: s})
				}
				for i := range vb.Events {
					owner[&vb.Events[i]] = false
				}
				w = append(w, vb)
			}
			var last uint64
			WalkSeq(w, func(ev *vm.Event) {
				seen, aliased := owner[ev]
				switch {
				case !aliased:
					t.Fatalf("seq %d: callback got a copy, not a pointer into its batch", ev.Seq)
				case seen:
					t.Fatalf("seq %d visited twice", ev.Seq)
				case ev.Seq <= last:
					t.Fatalf("seq %d visited after %d", ev.Seq, last)
				}
				owner[ev], last = true, ev.Seq
			})
			for ev, seen := range owner {
				if !seen {
					t.Errorf("seq %d (tid %d) never visited", ev.Seq, ev.TID)
				}
			}
		})
	}
}
