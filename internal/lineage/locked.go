package lineage

import (
	"sync"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/vm"
)

// LockedDomain is the lineage domain safe for concurrent use: Source
// and Join serialize on a mutex around the one shared roBDD manager,
// so several goroutines can propagate lineage labels whose Refs all
// live in a single space.
//
// Deprecated: the offloaded pipeline analyzes on one goroutine and
// takes a plain Domain, so nothing in the repo but the frozen bench/
// directory uses this; the next benchmark PR removes it (ROADMAP
// item 4).
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
