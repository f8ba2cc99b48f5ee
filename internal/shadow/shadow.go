// Package shadow provides paged shadow state keyed by word address.
//
// DIFT engines associate a taint cell with every machine word
// (registers and memory). Register files are small fixed arrays;
// memory shadow uses a paged map so that the common case — most of
// memory untainted — costs nothing, which is how the paper's tools
// keep the memory overhead of taint tracking tolerable.
//
// Mem is the one memory shape: a single-goroutine paged map, used by
// the inline engine and, on its one helper goroutine, by the
// offloaded pipeline.
package shadow

// PageBits sets the shadow page size (1<<PageBits words per page).
const PageBits = 10

const pageSize = 1 << PageBits
const pageMask = pageSize - 1

// Mem is a paged shadow memory of cells of type T. The zero value of
// T means "untainted"; pages are allocated on first tainted write and
// never returned while the Mem lives.
type Mem[T comparable] struct {
	pages map[int64]*[pageSize]T
	zero  T
	// Touched counts words ever written with a non-zero cell; it
	// backs the memory-overhead statistics.
	touched int
}

// NewMem returns an empty shadow memory.
func NewMem[T comparable]() *Mem[T] {
	return &Mem[T]{pages: make(map[int64]*[pageSize]T)}
}

// Get returns the cell at addr (zero value if never set).
func (m *Mem[T]) Get(addr int64) T {
	if p, ok := m.pages[addr>>PageBits]; ok {
		return p[addr&pageMask]
	}
	return m.zero
}

// Set writes the cell at addr. Writing the zero value to an address
// whose page is unallocated is free.
func (m *Mem[T]) Set(addr int64, v T) {
	pidx := addr >> PageBits
	p, ok := m.pages[pidx]
	if !ok {
		if v == m.zero {
			return
		}
		p = new([pageSize]T)
		m.pages[pidx] = p
	}
	if p[addr&pageMask] == m.zero && v != m.zero {
		m.touched++
	} else if p[addr&pageMask] != m.zero && v == m.zero {
		m.touched--
	}
	p[addr&pageMask] = v
}

// Tainted returns the number of words currently holding a non-zero
// cell.
func (m *Mem[T]) Tainted() int { return m.touched }
