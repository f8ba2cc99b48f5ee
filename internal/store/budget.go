package store

import (
	"sync/atomic"

	"scaldift/internal/ddg"
)

// Budget caps the chunk-decode work one traversal may trigger against
// a Reader. Chunk loads (cache misses: a file read, a CRC check, and
// a full decode) are the expensive unit of read-side work, so a
// long-lived service gives each query its own Budget and the shared
// Reader charges every decode against it; cache hits are free. When
// the budget runs out the reader stops expanding — DepsOf yields
// nothing for instances whose chunk would need a fresh load — and the
// traversal degrades exactly like a window truncation: the slice is a
// valid under-approximation and Exhausted reports why.
//
// A nil *Budget means unlimited. Budgets are safe for concurrent use
// by the parallel slicers' workers.
type Budget struct {
	maxLoads  int64
	loads     atomic.Int64
	exhausted atomic.Bool
}

// NewBudget returns a budget allowing at most maxChunkLoads chunk
// decodes; maxChunkLoads <= 0 means unlimited (charges are counted
// but never refused).
func NewBudget(maxChunkLoads int) *Budget {
	return &Budget{maxLoads: int64(maxChunkLoads)}
}

// charge consumes one chunk load, reporting false (and latching
// Exhausted) once past the cap. Nil-safe.
func (b *Budget) charge() bool {
	if b == nil {
		return true
	}
	n := b.loads.Add(1)
	if b.maxLoads > 0 && n > b.maxLoads {
		b.exhausted.Store(true)
		return false
	}
	return true
}

// Exhausted reports whether any charge was refused.
func (b *Budget) Exhausted() bool { return b != nil && b.exhausted.Load() }

// ChunkLoads returns the number of chunk decodes charged so far
// (including refused ones).
func (b *Budget) ChunkLoads() int64 {
	if b == nil {
		return 0
	}
	return b.loads.Load()
}

// Budgeted returns a view of the reader whose chunk loads are charged
// against b: the ddg.Source a service hands one query so it cannot
// drag the whole store through the cache. Views share the reader's
// chunk cache and are safe for concurrent use.
func (r *Reader) Budgeted(b *Budget) *BudgetedReader {
	return &BudgetedReader{r: r, b: b}
}

// BudgetedReader is a per-query view of a Reader; see
// Reader.Budgeted.
type BudgetedReader struct {
	r *Reader
	b *Budget
}

// Threads implements ddg.Source (index loads are metadata, not
// charged).
func (v *BudgetedReader) Threads() []int { return v.r.Threads() }

// Window implements ddg.Source.
func (v *BudgetedReader) Window(tid int) (uint64, uint64) { return v.r.Window(tid) }

// DepsOf implements ddg.Source, charging chunk loads to the budget.
func (v *BudgetedReader) DepsOf(id ddg.ID, yield func(ddg.Dep)) { v.r.depsOf(id, v.b, yield) }

// NodePC implements ddg.Source, charging chunk loads to the budget.
func (v *BudgetedReader) NodePC(id ddg.ID) (int32, bool) { return v.r.nodePC(id, v.b) }

var _ ddg.Source = (*BudgetedReader)(nil)
