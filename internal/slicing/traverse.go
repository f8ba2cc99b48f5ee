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
// threads it owns, their visited set, and its result tallies. queue,
// visited, edgePCs and truncated are guarded by mu (other shards'
// workers push edges here); nodes, edges, pcs and busy belong to the
// draining goroutine alone.
type shard struct {
	tid int // ShardBusy key; -1 for the orphan shard
	idx int // position in traversal.all

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []item
	visited   map[ddg.ID]bool
	edgePCs   map[int32]bool // statements of gated instances, reached by edge only
	truncated bool

	nodes int
	edges int
	pcs   map[int32]bool
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
	solo   bool
	all    []*shard
	byTID  []*shard // nil and out-of-range entries belong to orphan
	orphan *shard

	// gate, when set, is asked once per newly discovered instance,
	// under the owning shard's lock: false keeps the instance out of
	// the frontier.
	gate func(*shard, item) bool
	// expander builds one shard's expansion step: the returned func
	// reports each followed dependence of an item through edge, as the
	// instance it leads to and that instance's static PC.
	expander func(s *shard, edge func(ddg.ID, int32)) func(item)

	pending     atomic.Int64 // admitted-but-unfinished items
	nodes       atomic.Int64 // processed nodes (MaxNodes)
	done        atomic.Bool
	interrupted atomic.Bool
}

func newTraversal(src ddg.Source, opts Options, workers int) *traversal {
	t := &traversal{opts: opts, solo: workers <= 1}
	newShard := func(tid int) *shard {
		s := &shard{
			tid:     tid,
			idx:     len(t.all),
			visited: make(map[ddg.ID]bool),
			edgePCs: make(map[int32]bool),
			pcs:     make(map[int32]bool),
		}
		s.cond = sync.NewCond(&s.mu)
		t.all = append(t.all, s)
		return s
	}
	t.orphan = newShard(-1)
	if t.solo {
		return t
	}
	for _, tid := range src.Threads() {
		if tid < 0 || tid >= 1<<16 {
			continue // no ddg.ID can name it (16-bit thread field)
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

// admit dedups a discovered instance under its owning shard's lock and
// puts it through the gate; true means the caller must get it
// processed.
func (t *traversal) admit(s *shard, it item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.visited[it.id] {
		return false
	}
	s.visited[it.id] = true
	if t.gate != nil && !t.gate(s, it) {
		return false
	}
	t.pending.Add(1)
	return true
}

// enqueue routes an instance to the shared queue of the shard that
// owns it (criteria and cross-shard edges).
func (t *traversal) enqueue(s *shard, it item) {
	if !t.admit(s, it) {
		return
	}
	s.mu.Lock()
	s.queue = append(s.queue, it)
	s.cond.Signal()
	s.mu.Unlock()
}

// drain is the one worker loop: wait on the shard's cond for queued
// items (or the finish broadcast), swap the batch out under the lock,
// and process each item, draining the local same-shard continuation
// stack depth-first between items — a thread's own dependence chain
// walks with no queue round-trip and no wakeups; only cross-shard
// edges go through the owner's locked queue. Both are taken newest
// first, which makes the solo walk the LIFO worklist.
func (t *traversal) drain(s *shard) {
	var local []item
	expand := t.expander(s, func(next ddg.ID, pc int32) {
		s.edges++
		s.pcs[pc] = true
		it := item{id: next, pc: pc}
		if to := t.shardOf(next.TID()); to != s {
			t.enqueue(to, it)
		} else if t.admit(s, it) {
			local = append(local, it)
		}
	})
	process := func(it item) bool {
		s.nodes++
		if it.pc >= 0 {
			s.pcs[it.pc] = true
		}
		if t.opts.MaxNodes > 0 && t.nodes.Add(1) >= int64(t.opts.MaxNodes) {
			t.finish()
			return false
		}
		if s.nodes&donePollMask == 0 && t.doneFired() {
			return false
		}
		expand(it)
		if t.pending.Add(-1) == 0 {
			t.finish()
		}
		return !t.done.Load()
	}

	var batch []item
	for {
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
		ok := true
		for i := len(batch) - 1; ok && i >= 0; i-- {
			ok = process(batch[i])
			for ok && len(local) > 0 {
				next := local[len(local)-1]
				local = local[:len(local)-1]
				ok = process(next)
			}
		}
		s.busy += time.Since(start)
		if !ok {
			return
		}
	}
}

// walk runs the closure from the enqueued start items and folds the
// shards into a Slice.
func (t *traversal) walk(prog *isa.Program) *Slice {
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
		for pc := range s.pcs {
			res.PCs[pc] = true
		}
		for pc := range s.edgePCs {
			res.PCs[pc] = true
		}
		if s.busy > 0 {
			res.ShardBusy[s.tid] = s.busy
		}
	}
	res.Lines = pcsToLines(prog, res.PCs)
	return res
}
