package query

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/ontrac"
	"scaldift/internal/store"
)

// RegistryOptions shapes a Registry.
type RegistryOptions struct {
	// CacheBytes budgets the cache every reader of the fleet shares
	// (store.ChunkCache): decoded chunks and the reverse indexes forward
	// queries walk; 0 takes store.DefaultCacheBytes. Per-query budgets
	// bound how much of it one query may churn.
	CacheBytes int64
}

// ErrClosed reports an operation against a registry that Close has
// already torn down.
var ErrClosed = errors.New("query: registry closed")

// ErrUnknownTrace reports an id the registry has never seen (or has
// deleted).
var ErrUnknownTrace = errors.New("query: unknown trace")

// regStats counts reverse-index use across the fleet.
type regStats struct {
	revBuilds atomic.Int64 // reverse indexes built (forward queries)
	revHits   atomic.Int64 // forward queries served from a cached one
}

// Registry discovers and holds open store.Readers over a fleet of
// trace directories, one reader per trace from registration until
// Delete or Close. Refresh scans the roots and registers each
// store exactly once, so a recording box can keep dropping new trace
// directories under a root and a periodic refresh publishes them
// without a restart. A directory still being written (no final
// manifest yet) registers in follow mode: the trace reports live: true
// with a monotone frontier, and PollLive tails it until the final
// manifest lands.
//
// All methods are safe for concurrent use; reads take a shared lock,
// so queries never wait on a refresh's directory scan. Refresh,
// PollLive, and Close serialize against each other: a shutdown can
// never race an in-flight refresh into opening readers it will not
// release.
type Registry struct {
	roots []string

	refreshMu sync.Mutex // serializes Refresh / PollLive / lifecycle ops / Close

	stats regStats
	cache *store.ChunkCache // every reader's decoded chunks and held indexes, one budget

	mu     sync.RWMutex
	closed bool
	traces map[string]*Trace
	byDir  map[string]string // canonical dir -> assigned trace id
}

// Trace is one registered trace directory and the one reader that
// serves it. ID and Dir are fixed at registration; windows, chunk
// count, liveness, generation and trimmed floors are the reader's, and
// advance as PollLive tails a live store or retention trims it in
// place. The program attachment swaps in atomically.
type Trace struct {
	ID  string
	Dir string

	stats  *regStats
	reader *store.Reader
	revs   revCache // reverse index over reader, charged to its cache

	attached atomic.Pointer[progAttachment]
	// attachSeq counts AttachProgram calls. An attach changes answers
	// without bumping the generation, so result-cache keys fold it in.
	attachSeq atomic.Uint64
}

// progAttachment pairs a program with its O1 reconstructor.
type progAttachment struct {
	prog  *isa.Program
	recon *ontrac.Reconstructor
}

// NewRegistry builds an empty registry over the root directories.
// Call Refresh to populate it.
func NewRegistry(roots []string, opts RegistryOptions) *Registry {
	return &Registry{
		roots:  append([]string(nil), roots...),
		cache:  store.NewChunkCache(opts.CacheBytes),
		traces: make(map[string]*Trace),
		byDir:  make(map[string]string),
	}
}

// Refresh scans every root for trace stores not yet registered,
// opens them, and returns the new trace ids. Candidate directories
// are each root itself and its immediate subdirectories; they are
// processed in sorted (basename, canonical path) order, so the same
// fleet on disk always yields the same id assignment regardless of
// root order or scan timing. The first error opening a store is
// returned after the scan completes (other candidates still
// register); "not a store" is not an error.
func (g *Registry) Refresh() ([]string, error) {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	if g.isClosed() {
		return nil, ErrClosed
	}

	type candidate struct {
		base, canon, dir string
	}
	var cands []candidate
	var firstErr error
	seen := make(map[string]bool)
	add := func(dir string) {
		canon := dir
		if abs, err := filepath.Abs(dir); err == nil {
			canon = abs
		}
		if seen[canon] {
			return
		}
		seen[canon] = true
		cands = append(cands, candidate{filepath.Base(canon), canon, dir})
	}
	for _, root := range g.roots {
		add(root)
		//scaldift:ignore lockio refreshMu serializes whole refreshes by design; readers use registryMu, never this lock
		entries, err := os.ReadDir(root)
		if err != nil {
			if !os.IsNotExist(err) && firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, e := range entries {
			if e.IsDir() {
				add(filepath.Join(root, e.Name()))
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].base != cands[j].base {
			return cands[i].base < cands[j].base
		}
		return cands[i].canon < cands[j].canon
	})

	var added []string
	for _, c := range cands {
		id, ok, err := g.register(c.dir, c.canon, c.base)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			added = append(added, id)
		}
	}
	sort.Strings(added)
	return added, firstErr
}

// register opens dir if it is an unregistered store, in follow mode
// when its writer has not closed yet. ok reports a new registration.
func (g *Registry) register(dir, canon, base string) (id string, ok bool, err error) {
	g.mu.RLock()
	_, seen := g.byDir[canon]
	g.mu.RUnlock()
	if seen {
		return "", false, nil
	}
	isStore, closed, err := store.Status(dir)
	if err != nil || !isStore {
		return "", false, err
	}
	r, err := store.Open(dir, store.ReaderOptions{
		Cache:  g.cache,
		Follow: !closed,
	})
	if err != nil {
		return "", false, fmt.Errorf("query: open %s: %w", dir, err)
	}
	// Load indexes now: queries start against a warm index, and a
	// live trace's first frontier is in place before it is visible.
	r.Chunks()
	t := &Trace{Dir: dir, stats: &g.stats, reader: r}

	g.mu.Lock()
	defer g.mu.Unlock()
	if _, raced := g.byDir[canon]; raced {
		r.Close()
		return "", false, nil
	}
	id = base
	if _, taken := g.traces[id]; taken {
		// Deterministic collision suffix: derived from the canonical
		// path, never from registration order, so a trace keeps the
		// same public id across restarts and refreshes (the old @2
		// counter handed out whichever number the scan order reached
		// first).
		id = base + "@" + dirTag(canon)
		if _, taken := g.traces[id]; taken {
			r.Close()
			return "", false, fmt.Errorf("query: trace id collision for %s", canon)
		}
	}
	t.ID = id
	g.traces[id] = t
	g.byDir[canon] = id
	return id, true, nil
}

// dirTag derives a stable 8-hex tag from a canonical directory path.
func dirTag(canon string) string {
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:4])
}

// PollLive advances every live trace (store.Reader.Poll): new chunks
// extend the frontier, and a writer that closed flips its trace to
// served-complete mode — those ids are returned. Serialized against
// Refresh and Close; cheap when nothing is live.
func (g *Registry) PollLive() (closedIDs []string, err error) {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	if g.isClosed() {
		return nil, ErrClosed
	}
	g.mu.RLock()
	live := make([]*Trace, 0)
	for _, t := range g.traces {
		if t.Live() {
			live = append(live, t)
		}
	}
	g.mu.RUnlock()

	var firstErr error
	for _, t := range live {
		if _, perr := t.reader.Poll(); perr != nil && firstErr == nil {
			firstErr = fmt.Errorf("query: poll %s: %w", t.ID, perr)
		}
		if !t.Live() {
			closedIDs = append(closedIDs, t.ID)
		}
	}
	sort.Strings(closedIDs)
	return closedIDs, firstErr
}

// TrimTrace applies a retention policy to a closed trace's on-disk
// store (the janitor path — a live trace's writer owns its own
// retention and this refuses it), then polls the trace's reader, which
// prunes the trimmed segments in place and publishes the store's
// bumped generation. That invalidates result caches keyed on it and
// gives back the reader's held reverse indexes.
func (g *Registry) TrimTrace(id string, ret store.Retention) (removed int, err error) {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	if g.isClosed() {
		return 0, ErrClosed
	}
	t, ok := g.Get(id)
	if !ok {
		return 0, ErrUnknownTrace
	}
	if t.Live() {
		return 0, fmt.Errorf("query: trace %s is still recording; its writer owns retention", id)
	}
	removed, err = store.Trim(t.Dir, ret)
	if err != nil {
		return 0, err
	}
	// In-flight queries see the trimmed segments as holes until the
	// poll prunes them, never as wrong data or crash loss. The poll
	// runs even when nothing was removed, so a trim whose poll failed
	// is pruned on the next sweep; with the generation unchanged it
	// returns at once.
	_, err = t.reader.Poll()
	return removed, err
}

// Delete unregisters a trace: it leaves the fleet listing, its reader
// closes, and — with purge — its directory is removed from disk. The
// canonical-dir tombstone is kept, so a later Refresh will not
// resurrect a non-purged directory under the same or a new id.
func (g *Registry) Delete(id string, purge bool) error {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	t, ok := g.traces[id]
	if !ok {
		g.mu.Unlock()
		return ErrUnknownTrace
	}
	delete(g.traces, id)
	g.mu.Unlock()
	t.reader.Close()
	if purge {
		//scaldift:ignore lockio refreshMu serializes lifecycle ops by design; the query read path never takes it
		if err := os.RemoveAll(t.Dir); err != nil {
			return err
		}
	}
	return nil
}

// ReverseIndexBuilds returns how many reverse indexes forward queries
// have built (cached or not).
func (g *Registry) ReverseIndexBuilds() int64 { return g.stats.revBuilds.Load() }

// ReverseIndexHits returns how many forward queries walked a cached
// reverse index instead of building one.
func (g *Registry) ReverseIndexHits() int64 { return g.stats.revHits.Load() }

// ReverseIndexBytes returns the resident size of every cached reverse
// index across the fleet.
func (g *Registry) ReverseIndexBytes() int64 {
	g.mu.RLock()
	traces := make([]*Trace, 0, len(g.traces))
	for _, t := range g.traces {
		traces = append(traces, t)
	}
	g.mu.RUnlock()
	var n int64
	for _, t := range traces {
		n += t.revs.bytes()
	}
	return n
}

// ChunkCacheStats snapshots the cache the fleet's readers share: its
// bytes count decoded chunks and held reverse indexes alike. A
// reader's entries leave it when Delete or Close closes the reader; a
// trim takes out its pruned chunks and its indexes.
func (g *Registry) ChunkCacheStats() store.CacheStats { return g.cache.Stats() }

// LiveCount returns how many registered traces are still recording.
func (g *Registry) LiveCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, t := range g.traces {
		if t.Live() {
			n++
		}
	}
	return n
}

// Close marks the registry closed and releases every reader. It
// serializes against in-flight Refresh and PollLive — a racing
// refresh can never open readers a shutdown has already swept past —
// and later calls to either return ErrClosed. Idempotent.
func (g *Registry) Close() error {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	traces := make([]*Trace, 0, len(g.traces))
	for _, t := range g.traces {
		traces = append(traces, t)
	}
	g.mu.Unlock()
	for _, t := range traces {
		t.reader.Close()
	}
	return nil
}

func (g *Registry) isClosed() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.closed
}

// Get returns the trace by id.
func (g *Registry) Get(id string) (*Trace, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t, ok := g.traces[id]
	return t, ok
}

// Len returns the fleet size.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.traces)
}

// List returns every registered trace's info, sorted by id.
func (g *Registry) List() []TraceInfo {
	g.mu.RLock()
	traces := make([]*Trace, 0, len(g.traces))
	for _, t := range g.traces {
		traces = append(traces, t)
	}
	g.mu.RUnlock()
	sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
	out := make([]TraceInfo, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.Info())
	}
	return out
}

// AttachProgram associates a program with a trace, enabling
// statement-level lines, provenance queries, and O1 reconstruction
// (composed via ontrac.NewStaticReconstructor over the stored
// records). opts should be the recording configuration; see
// ontrac.StaticOptions.
func (g *Registry) AttachProgram(id string, p *isa.Program, opts ontrac.Options) error {
	t, ok := g.Get(id)
	if !ok {
		return fmt.Errorf("query: unknown trace %q", id)
	}
	t.attached.Store(&progAttachment{
		prog:  p,
		recon: ontrac.NewStaticReconstructor(p, opts),
	})
	t.attachSeq.Add(1) // after the swap: a query that reads the new seq sees the new program
	return nil
}

// Live reports whether the trace's writer had not yet closed as of
// the last poll.
func (t *Trace) Live() bool { return t.reader.Live() }

// Frontier returns the per-thread windows: for a live trace, the
// monotone frontier of instances that have landed; for a closed one,
// the full retained range.
func (t *Trace) Frontier() []ThreadWindow {
	var out []ThreadWindow
	for _, tid := range t.reader.Threads() {
		lo, hi := t.reader.Window(tid)
		out = append(out, ThreadWindow{TID: tid, Lo: lo, Hi: hi})
	}
	return out
}

// Info reports the trace's registry metadata.
func (t *Trace) Info() TraceInfo {
	r := t.reader
	info := TraceInfo{
		ID:         t.ID,
		Dir:        t.Dir,
		Threads:    t.Frontier(),
		Chunks:     r.Chunks(),
		Live:       r.Live(),
		Generation: r.Generation(),
		Recovered:  r.Recovered(),
	}
	if err := r.Err(); err != nil {
		info.IOError = err.Error()
	}
	for tid, lo := range r.Trimmed() {
		info.Trimmed = append(info.Trimmed, TrimmedWindow{TID: tid, Lo: lo})
	}
	sort.Slice(info.Trimmed, func(i, j int) bool { return info.Trimmed[i].TID < info.Trimmed[j].TID })
	if a := t.attached.Load(); a != nil {
		info.Program = a.prog.Name
		info.Reconstructing = true
	}
	return info
}

// Generation returns the trace's manifest generation as of the last
// poll. It advances on every seal and trim, so it is the
// cache-invalidation token for anything derived from the trace's
// contents.
func (t *Trace) Generation() uint64 { return t.reader.Generation() }

// Program returns the attached program, if any.
func (t *Trace) Program() *isa.Program {
	if a := t.attached.Load(); a != nil {
		return a.prog
	}
	return nil
}

// source builds the ddg.Source one query traverses: the trace's
// reader, viewed through the query's budget (nil = unlimited), with O1
// reconstruction composed on top when a program is attached.
func (t *Trace) source(b *store.Budget) ddg.Source {
	var src ddg.Source = t.reader
	if b != nil {
		src = t.reader.Budgeted(b)
	}
	if a := t.attached.Load(); a != nil {
		return a.recon.ReaderOver(src)
	}
	return src
}
