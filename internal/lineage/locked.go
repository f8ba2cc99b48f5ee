package lineage

import (
	"sync"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/vm"
)

// LockedDomain is the pipeline-safe lineage domain: Source and Join
// serialize on a mutex around the one shared roBDD manager, so
// concurrent pipeline workers (internal/pipeline) can propagate
// lineage labels whose Refs all live in a single space — queries and
// the memory report work exactly as in the inline engine.
//
// The alternative — a private manager per worker, merged by a final
// cross-manager translate pass — was built, measured slower (private
// managers redo every union the shared operation cache would have
// answered, then pay the translation on top), and deleted.
type LockedDomain struct {
	*Domain
	mu sync.Mutex
}

// NewLockedDomain creates a locked exact lineage domain over input
// indices {0 .. 2^bits - 1}.
func NewLockedDomain(bits int) *LockedDomain {
	return &LockedDomain{Domain: NewDomain(bits)}
}

// Source labels a fresh input word under the manager lock.
func (d *LockedDomain) Source(ev *vm.Event) bdd.Ref {
	d.mu.Lock()
	r := d.Domain.Source(ev)
	d.mu.Unlock()
	return r
}

// Join is set union under the manager lock. The terminal fast paths
// never touch the manager, so they skip the lock — untainted traffic
// (most events on control-heavy code) stays lock-free.
func (d *LockedDomain) Join(a, b bdd.Ref) bdd.Ref {
	switch {
	case a == b:
		return a
	case a == bdd.False:
		return b
	case b == bdd.False:
		return a
	case a == bdd.True || b == bdd.True:
		return bdd.True
	}
	d.mu.Lock()
	r := d.Domain.Join(a, b)
	d.mu.Unlock()
	return r
}

// Transfer is promoted from Domain: it never touches the manager, so
// it needs no lock.

var _ dift.Domain[bdd.Ref] = (*LockedDomain)(nil)
