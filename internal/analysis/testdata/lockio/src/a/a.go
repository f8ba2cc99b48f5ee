// Package a exercises the lockio analyzer: no file I/O or chunk
// decode while a sync mutex is held.
package a

import (
	"os"
	"sync"

	"ddg"
)

type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	segs []string
}

func badReadUnderLock(s *state, path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(path) // want "os.ReadFile called while s.mu is held"
}

func badDecodeUnderRLock(s *state, c *ddg.RawChunk) ([]ddg.Dep, error) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return c.Decode() // want "ddg.RawChunk.Decode called while s.rw is held"
}

// goodSnapshot is the sanctioned shape: snapshot under the lock, do
// the I/O after unlocking.
func goodSnapshot(s *state, path string) ([]byte, error) {
	s.mu.Lock()
	p := s.segs[0] + path
	s.mu.Unlock()
	return os.ReadFile(p)
}

// branchScoped is allowed: the lock is released inside the branch that
// took it, so nothing is held at the read.
func branchScoped(s *state, cond bool, path string) {
	if cond {
		s.mu.Lock()
		s.mu.Unlock()
	}
	os.ReadFile(path)
}

// loadIndex is too heavy to run under a mutex; the tag makes every
// call site checkable.
//
//scaldift:io
func loadIndex(path string) error {
	_, err := os.Stat(path)
	return err
}

func badTagged(s *state, path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return loadIndex(path) // want "loadIndex .//scaldift:io. called while s.mu is held"
}

// spawned is allowed: the goroutine body runs without the spawner's
// lock.
func spawned(s *state, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		os.ReadFile(path)
	}()
}

// lockInsideGoroutine: the literal takes its own lock, so its own I/O
// is checked against it.
func lockInsideGoroutine(s *state, path string) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		os.ReadFile(path) // want "os.ReadFile called while s.mu is held"
	}()
}

// chunkCache stands in for the store's shared decoded-chunk cache: its
// lock guards accounting only, never a read or a decode.
type chunkCache struct {
	mu    sync.Mutex
	bytes int
}

func (c *chunkCache) badDecodeUnderCacheLock(rc *ddg.RawChunk) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes++
	rc.Decode() // want "ddg.RawChunk.Decode called while c.mu is held"
}

func (c *chunkCache) badReadUnderCacheLock(path string) {
	c.mu.Lock()
	os.ReadFile(path) // want "os.ReadFile called while c.mu is held"
	c.mu.Unlock()
}

// goodLoadThenAdmit is the cache's shape: read and decode first, lock
// only to admit the result.
func (c *chunkCache) goodLoadThenAdmit(rc *ddg.RawChunk, path string) {
	os.ReadFile(path)
	rc.Decode()
	c.mu.Lock()
	c.bytes++
	c.mu.Unlock()
}

// pollStyle documents a deliberate exception: the poll path serializes
// directory scans on purpose.
func pollStyle(s *state, dir string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	os.ReadDir(dir) //scaldift:ignore lockio poll path trades latency for single-flight scans
}
