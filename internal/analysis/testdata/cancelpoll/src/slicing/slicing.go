// Package slicing exercises the cancelpoll analyzer: traversal loops
// must observe cooperative cancellation. The analyzer only fires in
// packages named "slicing", mirroring the real internal/slicing.
package slicing

import (
	"sync/atomic"

	"ddg"
)

type source struct{}

func (s *source) DepsOf(addr uint64) []ddg.Dep { return nil }

type options struct {
	done func() bool
}

func (o *options) doneFired() bool {
	return o.done != nil && o.done()
}

func badWalk(src *source, worklist []uint64) int {
	n := 0
	for len(worklist) > 0 { // want "traversal loop does not poll cancellation"
		addr := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		n += len(src.DepsOf(addr))
	}
	return n
}

func goodWalk(src *source, o *options, worklist []uint64) int {
	n := 0
	for len(worklist) > 0 {
		if o.doneFired() {
			return n
		}
		addr := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		n += len(src.DepsOf(addr))
	}
	return n
}

func badMerge(buckets []map[int][]ddg.Dep, tid int) map[uint64][]ddg.Dep {
	rev := map[uint64][]ddg.Dep{}
	for _, b := range buckets {
		for _, d := range b[tid] { // want "traversal loop does not poll cancellation"
			rev[d.Def] = append(rev[d.Def], d)
		}
	}
	return rev
}

// goodAtomic polls a done flag once per bucket; the masked-poll
// allowance means one observation anywhere in the function covers its
// loops.
func goodAtomic(buckets []map[int][]ddg.Dep, tid int, done *atomic.Bool) map[uint64][]ddg.Dep {
	rev := map[uint64][]ddg.Dep{}
	for _, b := range buckets {
		if done.Load() {
			return rev
		}
		for _, d := range b[tid] {
			rev[d.Def] = append(rev[d.Def], d)
		}
	}
	return rev
}

// goodSelect observes cancellation through a channel receive.
func goodSelect(src *source, done chan struct{}, worklist []uint64) int {
	n := 0
	for _, addr := range worklist {
		select {
		case <-done:
			return n
		default:
		}
		n += len(src.DepsOf(addr))
	}
	return n
}

// badInLit: a function literal is its own analysis unit, so the
// enclosing function's (absent) polling does not excuse it.
func badInLit(src *source, worklist []uint64) func() int {
	return func() int {
		n := 0
		for _, addr := range worklist { // want "traversal loop does not poll cancellation"
			n += len(src.DepsOf(addr))
		}
		return n
	}
}

// ignoredScan documents a deliberate exception: a bounded scan over a
// fixed-size shard header.
func ignoredScan(src *source, heads []uint64) int {
	n := 0
	for _, addr := range heads { //scaldift:ignore cancelpoll bounded header scan, at most one entry per shard
		n += len(src.DepsOf(addr))
	}
	return n
}

// yieldSource has the real ddg.Source shape: windows per thread and a
// DepsOf that yields.
type yieldSource struct{}

func (s *yieldSource) Threads() []int                        { return nil }
func (s *yieldSource) Window(tid int) (lo, hi uint64)        { return 0, 0 }
func (s *yieldSource) DepsOf(id uint64, yield func(ddg.Dep)) {}

// badBuildReverse is a reverse-index build: one pass over every
// thread's window, proportional to the trace, that never looks at
// cancellation.
func badBuildReverse(src *yieldSource) map[uint64][]uint64 {
	rev := map[uint64][]uint64{}
	add := func(d ddg.Dep) { rev[d.Def] = append(rev[d.Def], d.Use) }
	for _, tid := range src.Threads() { // want "traversal loop does not poll cancellation"
		lo, hi := src.Window(tid)
		for n := lo; n <= hi && lo != 0; n++ { // want "traversal loop does not poll cancellation"
			src.DepsOf(uint64(tid)<<48|n, add)
		}
	}
	return rev
}

// goodBuildReverse polls masked, once per 256 instances.
func goodBuildReverse(src *yieldSource, o *options) map[uint64][]uint64 {
	rev := map[uint64][]uint64{}
	add := func(d ddg.Dep) { rev[d.Def] = append(rev[d.Def], d.Use) }
	for _, tid := range src.Threads() {
		lo, hi := src.Window(tid)
		for n := lo; n <= hi && lo != 0; n++ {
			if (n-lo)&0xff == 0 && o.doneFired() {
				return nil
			}
			src.DepsOf(uint64(tid)<<48|n, add)
		}
	}
	return rev
}
