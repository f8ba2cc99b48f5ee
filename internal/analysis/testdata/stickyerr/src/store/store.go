// Package store exercises the stickyerr analyzer: only
// errDamage-classified errors may enter the negative chunk set.
package store

import "errors"

var errDamage = errors.New("damaged chunk")

type decoded struct{}

type cacheEntry struct{ d *decoded }

type threadState struct {
	cache map[int]*cacheEntry
	neg   map[int]bool
}

// ChunkCache mirrors the store's shared decoded-chunk cache.
type ChunkCache struct{}

func (c *ChunkCache) fill(ts *threadState, idx, epoch int, d *decoded) *decoded { return d }

func (c *ChunkCache) admit(ts *threadState, idx int, d *decoded) {}

// putNegative is the one sanctioned writer of the negative set;
// stickyerr checks its call sites instead.
func (ts *threadState) putNegative(idx int) {
	ts.neg[idx] = true
	ts.cache[idx] = nil
}

func (ts *threadState) badUnguarded(idx int, err error) {
	ts.putNegative(idx) // want "putNegative called without an errors.Is"
}

func (ts *threadState) goodGuarded(idx int, err error) {
	if errors.Is(err, errDamage) {
		ts.putNegative(idx)
	}
}

func (ts *threadState) goodEarlyReturn(idx int, err error) {
	if !errors.Is(err, errDamage) {
		return
	}
	ts.putNegative(idx)
}

func (ts *threadState) goodElse(idx int, err error) {
	if !errors.Is(err, errDamage) {
		_ = idx
	} else {
		ts.putNegative(idx)
	}
}

func (ts *threadState) goodCombined(idx int, err error) {
	if err != nil && errors.Is(err, errDamage) {
		ts.putNegative(idx)
	}
}

// badSibling: the guard must dominate the call; a check in an
// unrelated branch does not.
func (ts *threadState) badSibling(idx int, err error) {
	if errors.Is(err, errDamage) {
		_ = idx
	}
	ts.putNegative(idx) // want "putNegative called without an errors.Is"
}

func badNilFill(c *ChunkCache, ts *threadState, idx int, err error) {
	if errors.Is(err, errDamage) {
		c.fill(ts, idx, 0, nil) // want "ChunkCache.fill called with a nil chunk"
	}
}

func badNilAdmit(c *ChunkCache, ts *threadState, idx int) {
	c.admit(ts, idx, nil) // want "ChunkCache.admit called with a nil chunk"
}

// goodFill caches what a load returned.
func goodFill(c *ChunkCache, ts *threadState, idx int, d *decoded) *decoded {
	return c.fill(ts, idx, 0, d)
}

func (ts *threadState) badDirectNil(idx int) {
	ts.cache[idx] = nil // want "nil stored directly into ts.cache"
}

func (ts *threadState) badDirectNeg(idx int) {
	ts.neg[idx] = true // want "ts.neg written outside putNegative"
}

// goodEntry stores a real entry and forgets a negative: neither hides
// a chunk.
func (ts *threadState) goodEntry(idx int, e *cacheEntry) {
	ts.cache[idx] = e
	delete(ts.neg, idx)
}

// quarantine documents a deliberate exception.
func (ts *threadState) quarantine(idx int, err error) {
	ts.putNegative(idx) //scaldift:ignore stickyerr quarantine path pins every error by design
}
