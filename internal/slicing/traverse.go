package slicing

import (
	"sync"
	"sync/atomic"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// item is one frontier entry: an instance and the static PC it was
// discovered with (-1: unknown).
type item struct {
	id ddg.ID
	pc int32
}

// shard is one slice of the closure frontier: the instances of the
// threads it owns, their visited set, and its result tallies. mu
// guards queue alone: the edges other shards' workers hand over, not
// yet deduplicated. Everything else belongs to the goroutine draining
// the shard (before the walk starts, to the one seeding it), so only
// that goroutine admits the shard's instances.
type shard struct {
	tid int // ShardBusy key; -1 for the orphan shard

	mu    sync.Mutex
	cond  *sync.Cond
	queue []item

	visited   visitedSet
	local     []item // admitted, not yet processed: the depth-first stack
	edgePCs   pcSet  // statements of gated instances, reached by edge only
	truncated bool

	nodes int
	edges int
	pcs   pcSet
	busy  time.Duration
}

// traversal is the one closure walk both directions and both worker
// settings run. Sharded, every trace thread has a shard drained by its
// own goroutine, plus an orphan shard for ids in threads the source
// never recorded (stored cross-thread edges may point at them; under a
// hinted source they still expand through reconstruction). Solo, the
// orphan shard is the only shard, owns every thread, and is drained on
// the calling goroutine: the classic sequential worklist.
type traversal struct {
	opts   Options
	prog   *isa.Program
	solo   bool
	all    []*shard
	byTID  []*shard // nil and out-of-range entries belong to orphan
	orphan *shard

	// gate, when set, is asked once per newly discovered instance, by
	// the owning shard's goroutine: false keeps the instance out of the
	// frontier.
	gate func(*shard, item) bool
	// expander builds one shard's expansion step: the returned func
	// reports each followed dependence of an item through edge, as the
	// instance it leads to and that instance's static PC.
	expander func(s *shard, edge func(ddg.ID, int32)) func(item)

	pending     atomic.Int64 // queued or admitted items not yet finished
	nodes       atomic.Int64 // processed nodes (MaxNodes)
	done        atomic.Bool
	interrupted atomic.Bool
}

func newTraversal(src ddg.Source, prog *isa.Program, opts Options, workers int) *traversal {
	t := &traversal{opts: opts, prog: prog, solo: workers <= 1}
	newShard := func(tid int) *shard {
		s := &shard{tid: tid, edgePCs: newPCSet(prog), pcs: newPCSet(prog)}
		s.cond = sync.NewCond(&s.mu)
		t.all = append(t.all, s)
		return s
	}
	t.orphan = newShard(-1)
	if t.solo {
		return t
	}
	for _, tid := range src.Threads() {
		if !idTID(tid) {
			continue
		}
		for tid >= len(t.byTID) {
			t.byTID = append(t.byTID, nil)
		}
		if t.byTID[tid] == nil {
			t.byTID[tid] = newShard(tid)
		}
	}
	return t
}

// idTID reports whether some ddg.ID can name thread tid (16-bit
// thread field).
func idTID(tid int) bool { return tid >= 0 && tid < 1<<16 }

func (t *traversal) shardOf(tid int) *shard {
	if tid < len(t.byTID) && t.byTID[tid] != nil {
		return t.byTID[tid]
	}
	return t.orphan
}

// each runs f(0..n-1): in order on the calling goroutine when solo,
// otherwise one goroutine per index, joined before it returns.
func (t *traversal) each(n int, f func(int)) {
	if t.solo {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// finish ends the walk — closure complete, MaxNodes reached, or Done
// fired — and wakes every drain blocked on an empty queue.
func (t *traversal) finish() {
	if t.done.CompareAndSwap(false, true) {
		for _, s := range t.all {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// doneFired polls Options.Done, latching Interrupted and finishing the
// walk once it fires. Loops call it masked (donePollMask).
func (t *traversal) doneFired() bool {
	if !t.done.Load() && t.opts.doneFired() {
		t.interrupted.Store(true)
		t.finish()
	}
	return t.done.Load()
}

// admit dedups a discovered instance and puts it through the gate;
// true means it must be processed. Only the shard's owner calls it.
func (t *traversal) admit(s *shard, it item) bool {
	return s.visited.add(it.id) && (t.gate == nil || t.gate(s, it))
}

// seed admits a start instance into its owning shard before the walk
// begins, while the calling goroutine still owns every shard.
func (t *traversal) seed(it item) {
	if s := t.shardOf(it.id.TID()); t.admit(s, it) {
		t.pending.Add(1)
		s.local = append(s.local, it)
	}
}

// drain is the one worker loop. It processes the shard's local stack
// depth-first, so a thread's own dependence chain walks with no lock
// and no wakeup; an edge into another shard is counted in pending and
// pushed onto that shard's queue. Between stacks it waits on the cond
// for queued items (or the finish broadcast), swaps the batch out
// under the lock and admits each item: a duplicate or gated one is
// only uncounted. Both are taken newest first, which makes the solo
// walk (one shard, nothing ever queued) the LIFO worklist.
func (t *traversal) drain(s *shard) {
	expand := t.expander(s, func(next ddg.ID, pc int32) {
		s.edges++
		s.pcs.add(pc)
		it := item{id: next, pc: pc}
		if to := t.shardOf(next.TID()); to != s {
			t.pending.Add(1)
			to.mu.Lock()
			to.queue = append(to.queue, it)
			to.cond.Signal()
			to.mu.Unlock()
		} else if t.admit(s, it) {
			t.pending.Add(1)
			s.local = append(s.local, it)
		}
	})
	process := func(it item) bool {
		s.nodes++
		if it.pc >= 0 {
			s.pcs.add(it.pc)
		}
		if t.opts.MaxNodes > 0 && t.nodes.Add(1) >= int64(t.opts.MaxNodes) {
			t.finish()
			return false
		}
		if s.nodes&donePollMask == 0 && t.doneFired() {
			return false
		}
		expand(it)
		t.release()
		return !t.done.Load()
	}
	// stack processes the local stack until it is empty or the walk
	// ends.
	stack := func() bool {
		for len(s.local) > 0 {
			it := s.local[len(s.local)-1]
			s.local = s.local[:len(s.local)-1]
			if !process(it) {
				return false
			}
		}
		return true
	}

	ok := true
	if len(s.local) > 0 { // seeded
		start := time.Now()
		ok = stack()
		s.busy += time.Since(start)
	}
	var batch []item
	for ok {
		s.mu.Lock()
		for len(s.queue) == 0 && !t.done.Load() {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		batch, s.queue = s.queue, batch[:0]
		s.mu.Unlock()

		start := time.Now()
		for i := len(batch) - 1; ok && i >= 0; i-- {
			if t.admit(s, batch[i]) {
				ok = process(batch[i]) && stack()
			} else {
				t.release()
			}
		}
		s.busy += time.Since(start)
	}
}

// release finishes one counted item; the last one ends the walk.
func (t *traversal) release() {
	if t.pending.Add(-1) == 0 {
		t.finish()
	}
}

// walk runs the closure from the seeded start items and folds the
// shards into a Slice.
func (t *traversal) walk() *Slice {
	if t.pending.Load() > 0 {
		t.each(len(t.all), func(i int) { t.drain(t.all[i]) })
	}
	res := &Slice{
		PCs:         make(map[int32]bool),
		ShardBusy:   make(map[int]time.Duration),
		Interrupted: t.interrupted.Load(),
	}
	for _, s := range t.all {
		res.Nodes += s.nodes
		res.Edges += s.edges
		res.TruncatedAtWindow = res.TruncatedAtWindow || s.truncated
		s.pcs.addTo(res.PCs)
		s.edgePCs.addTo(res.PCs)
		if s.busy > 0 {
			res.ShardBusy[s.tid] = s.busy
		}
	}
	res.Lines = pcsToLines(t.prog, res.PCs)
	return res
}
