package shadow

import "fmt"

// Epoch is a shadow memory partitioned by page index across unlocked
// paged Mems, coordinated by epoch-scoped shard ownership instead of
// per-access locks. It replaces the old mutex-sharded variant on the
// offloaded pipeline's hot path: a propagation step there used to pay
// a lock/unlock pair per memory label access even though the window's
// conflict analysis had already proven the workers' address sets
// disjoint. With ownership sharding the analysis result is turned
// into capability: before a window is dispatched, the consumer
// assigns every shard the window touches to exactly one owner id, and
// each worker accesses its owned shards through a View with zero
// atomics — the happens-before edges of the dispatch/barrier pair
// (the pipeline pool's run) are the only fences.
//
// Concurrency contract (enforced statically by the epochfence
// analyzer in internal/analysis and dynamically by the ownership
// check in View.Get/Set):
//
//   - Ownership (BeginEpoch / Claim / ClaimAll) is mutated only by
//     the coordinating goroutine, and only while no View is in flight
//     — i.e. before dispatching a window's tasks or after the barrier
//     that retires them. That dispatch/barrier is the fence; shadow
//     writes never cross an ownership boundary without one.
//   - A View is valid for one epoch. Workers must not retain a View
//     (or hand it to another goroutine) past the barrier of the
//     window it was created for.
//   - The whole-memory accessors (Get, Tainted, Pages, SizeWords,
//     Range, Clear) are quiescent-only: the coordinating goroutine
//     between windows, or any goroutine after the pipeline is closed.
//
// Sharding is by page index, so neighbouring words share a shard
// (spatial locality) while distinct address ranges spread across
// shards.
type Epoch[T comparable] struct {
	shards []*Mem[T]
	owners []int32
	mask   int64
	// allOwned short-circuits ClaimAll for back-to-back sequential
	// windows, the common case on single-threaded phases.
	allOwned bool
	// exView is the one exclusive view ClaimAll hands out, cached so
	// the per-window sequential path allocates nothing.
	exView View[T]
}

// Unowned marks a shard no owner claimed this epoch.
const Unowned int32 = -1

// ExclusiveOwner is the owner id ClaimAll assigns: the coordinating
// goroutine's id for sequential (whole-memory) propagation.
const ExclusiveOwner int32 = 0

// NewEpoch returns an epoch-sharded shadow memory with at least the
// given shard count (rounded up to a power of two, minimum 1). All
// shards start unowned.
func NewEpoch[T comparable](shards int) *Epoch[T] {
	n := 1
	for n < shards {
		n <<= 1
	}
	e := &Epoch[T]{
		shards: make([]*Mem[T], n),
		owners: make([]int32, n),
		mask:   int64(n - 1),
	}
	for i := range e.shards {
		e.shards[i] = NewMem[T]()
		e.owners[i] = Unowned
	}
	e.exView = View[T]{e: e, id: ExclusiveOwner}
	return e
}

// Shards returns the shard count.
func (e *Epoch[T]) Shards() int { return len(e.shards) }

// ShardOf returns the shard index addr belongs to. Masking the page
// index keeps the shard non-negative for negative addresses too.
func (e *Epoch[T]) ShardOf(addr int64) int { return int((addr >> PageBits) & e.mask) }

// BeginEpoch starts a new ownership epoch with every shard unowned.
// Call only while quiescent (no View in flight); the subsequent task
// dispatch publishes the new assignment to the workers.
func (e *Epoch[T]) BeginEpoch() {
	for i := range e.owners {
		e.owners[i] = Unowned
	}
	e.allOwned = false
}

// Claim assigns shard to owner for the current epoch.
func (e *Epoch[T]) Claim(shard int, owner int32) {
	e.owners[shard] = owner
	e.allOwned = false
}

// ClaimAll assigns every shard to ExclusiveOwner and returns its View
// — the sequential-propagation mode (ordered merges, single-chain
// windows). Idempotent and O(1) when the previous window was also
// exclusive.
func (e *Epoch[T]) ClaimAll() *View[T] {
	if !e.allOwned {
		for i := range e.owners {
			e.owners[i] = ExclusiveOwner
		}
		e.allOwned = true
	}
	return &e.exView
}

// View returns the owner's access capability for the current epoch.
// The returned view must not outlive the epoch (see the type comment).
func (e *Epoch[T]) View(owner int32) *View[T] {
	if owner < 0 {
		panic(fmt.Sprintf("shadow: View(%d): negative owner id", owner))
	}
	return &View[T]{e: e, id: owner}
}

// View is one owner's window-scoped access to an Epoch. Get and Set
// verify ownership of the target shard on every access: the check is
// a plain slice load and compare (the owners slice is read-only while
// views are in flight), and a violation — a propagation step touching
// an address outside the footprint its window's conflict analysis
// claimed — panics immediately instead of corrupting shadow state.
type View[T comparable] struct {
	e  *Epoch[T]
	id int32
}

// Owner returns the view's owner id.
func (v *View[T]) Owner() int32 { return v.id }

func (v *View[T]) shard(addr int64) *Mem[T] {
	s := (addr >> PageBits) & v.e.mask
	if got := v.e.owners[s]; got != v.id {
		panic(fmt.Sprintf("shadow: owner %d touched addr %d in shard %d owned by %d (ownership boundary crossed without a fence)",
			v.id, addr, s, got))
	}
	return v.e.shards[s]
}

// Get returns the cell at addr (zero value if never set). Panics if
// the view's owner does not own addr's shard this epoch.
func (v *View[T]) Get(addr int64) T { return v.shard(addr).Get(addr) }

// Set writes the cell at addr. Panics if the view's owner does not
// own addr's shard this epoch.
func (v *View[T]) Set(addr int64, val T) { v.shard(addr).Set(addr, val) }

// --- quiescent whole-memory accessors ------------------------------

// Get returns the cell at addr. Quiescent-only.
func (e *Epoch[T]) Get(addr int64) T {
	return e.shards[(addr>>PageBits)&e.mask].Get(addr)
}

// Set writes the cell at addr. Quiescent-only.
func (e *Epoch[T]) Set(addr int64, val T) {
	e.shards[(addr>>PageBits)&e.mask].Set(addr, val)
}

// Clear resets all shadow state. Quiescent-only.
func (e *Epoch[T]) Clear() {
	for _, m := range e.shards {
		m.Clear()
	}
}

// Tainted returns the number of words currently holding a non-zero
// cell. Quiescent-only.
func (e *Epoch[T]) Tainted() int {
	n := 0
	for _, m := range e.shards {
		n += m.Tainted()
	}
	return n
}

// Pages returns the number of allocated shadow pages across shards.
// Quiescent-only.
func (e *Epoch[T]) Pages() int {
	n := 0
	for _, m := range e.shards {
		n += m.Pages()
	}
	return n
}

// SizeWords estimates the shadow footprint in T-cells. Quiescent-only.
func (e *Epoch[T]) SizeWords() int {
	n := 0
	for _, m := range e.shards {
		n += m.SizeWords()
	}
	return n
}

// Range calls f for every non-zero cell, shard by shard. If f returns
// false, iteration stops. Quiescent-only.
func (e *Epoch[T]) Range(f func(addr int64, v T) bool) {
	for _, m := range e.shards {
		stop := false
		m.Range(func(addr int64, v T) bool {
			if !f(addr, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}
