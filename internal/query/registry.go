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
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/ontrac"
	"scaldift/internal/store"
)

// RegistryOptions shapes a Registry.
type RegistryOptions struct {
	// CacheBytes budgets the decoded-chunk cache every reader of the
	// fleet shares (store.ChunkCache); 0 takes
	// store.DefaultCacheBytes. Per-query budgets bound how much of it
	// one query may churn.
	CacheBytes int64
	// Live registers stores whose writer has not closed yet: the
	// reader attaches in follow mode, the trace reports live: true
	// with a monotone frontier, and PollLive advances it until the
	// final manifest lands. Off, Refresh keeps today's behavior of
	// skipping directories still being written.
	Live bool
	// ReaderTTL evicts a trace's reader (its loaded indexes and
	// caches, not its registration) after this much idle time; the
	// next query re-attaches cold. 0 disables TTL eviction.
	ReaderTTL time.Duration
	// MaxReaders caps how many cold traces keep an open reader; past
	// it, EvictCold drops the least-recently-used first. Live traces
	// never count against the cap and are never evicted. 0 means no
	// cap.
	MaxReaders int
}

// ErrClosed reports an operation against a registry that Close has
// already torn down.
var ErrClosed = errors.New("query: registry closed")

// ErrUnknownTrace reports an id the registry has never seen (or has
// deleted).
var ErrUnknownTrace = errors.New("query: unknown trace")

// regStats counts reader-lifecycle events across the fleet.
type regStats struct {
	evicted    atomic.Int64
	reattached atomic.Int64
	revBuilds  atomic.Int64 // reverse indexes built (forward queries)
	revHits    atomic.Int64 // forward queries served from a cached one
}

// Registry discovers and holds open store.Readers over a fleet of
// trace directories. Refresh scans the roots and registers each
// store exactly once, so a recording box can keep dropping new trace
// directories under a root and a periodic refresh publishes them
// without a restart. A directory still being written (no final
// manifest yet) is skipped — unless RegistryOptions.Live is set, in
// which case it registers in follow mode and PollLive tails it while
// it records.
//
// All methods are safe for concurrent use; reads take a shared lock,
// so queries never wait on a refresh's directory scan. Refresh,
// PollLive, and Close serialize against each other: a shutdown can
// never race an in-flight refresh into opening readers it will not
// release.
type Registry struct {
	roots []string
	opts  RegistryOptions

	refreshMu sync.Mutex // serializes Refresh / PollLive / EvictCold / lifecycle ops / Close

	stats regStats
	cache *store.ChunkCache // every reader's decoded chunks, one budget

	mu     sync.RWMutex
	closed bool
	traces map[string]*Trace
	byDir  map[string]string // canonical dir -> assigned trace id
}

// Trace is one registered trace directory plus the metadata the
// service reports. ID and Dir are fixed at registration; the
// published snapshot (windows, chunk count, liveness, generation,
// trimmed floors) advances under its own lock as PollLive tails a
// live store or retention trims it. The reader is a cache: eviction
// drops it (indexes, chunk cache and forward queries' reverse indexes
// with it) and the next query re-attaches cold through acquire. The
// program attachment swaps in atomically.
type Trace struct {
	ID  string
	Dir string

	stats *regStats

	// rmu guards the reader's lifecycle. A query that acquired the
	// reader keeps using its own pointer even if eviction drops the
	// registry's — store.Reader stays queryable after Close (it holds
	// no fds between calls), so in-flight work is never cut off.
	rmu        sync.Mutex
	reader     *store.Reader
	revs       *revCache           // reverse indexes over reader; replaced with it
	readerOpts store.ReaderOptions // re-attach options (never follow: only closed traces evict)

	lastUsed atomic.Int64 // unix nanos of the last acquire

	mu         sync.RWMutex
	live       bool
	generation uint64
	threads    []ThreadWindow
	chunks     int
	recovered  bool
	trimmed    []TrimmedWindow

	attached atomic.Pointer[progAttachment]
	// attachSeq counts AttachProgram calls. An attach changes answers
	// without bumping the generation, so result-cache keys fold it in.
	attachSeq atomic.Uint64
}

// acquire returns the trace's reader and the reverse-index cache that
// belongs to it, re-attaching a cold reader, and stamps the LRU clock.
func (t *Trace) acquire() (*store.Reader, *revCache, error) {
	t.lastUsed.Store(time.Now().UnixNano())
	t.rmu.Lock()
	defer t.rmu.Unlock()
	if t.reader != nil {
		return t.reader, t.revs, nil
	}
	r, err := store.Open(t.Dir, t.readerOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("query: re-attach %s: %w", t.ID, err)
	}
	t.reader, t.revs = r, new(revCache)
	if t.stats != nil {
		t.stats.reattached.Add(1)
	}
	t.refreshSnapshot(r)
	return r, t.revs, nil
}

// currentReader returns the open reader without re-attaching (nil
// when evicted).
func (t *Trace) currentReader() *store.Reader {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return t.reader
}

// dropReader detaches and closes the trace's reader, releasing the
// reverse indexes built over it, and reports whether one was open.
func (t *Trace) dropReader() bool {
	t.rmu.Lock()
	r := t.reader
	t.reader, t.revs = nil, nil
	t.rmu.Unlock()
	if r == nil {
		return false
	}
	r.Close()
	return true
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
		opts:   opts,
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
// register); "not a store" — and, without RegistryOptions.Live,
// "not closed yet" — are not errors.
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

// register opens dir if it is an unregistered store (closed, or any
// store in live mode). ok reports a new registration.
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
	if !closed && !g.opts.Live {
		return "", false, nil
	}
	r, err := store.Open(dir, store.ReaderOptions{
		Cache:  g.cache,
		Follow: !closed,
	})
	if err != nil {
		return "", false, fmt.Errorf("query: open %s: %w", dir, err)
	}
	// Load indexes now: queries start against a warm index, and a
	// live trace's first frontier is published before it is visible.
	t := &Trace{
		Dir:   dir,
		stats: &g.stats,
		// Re-attach after eviction is always cold: only closed traces
		// evict, so follow mode never outlives the first reader.
		readerOpts: store.ReaderOptions{Cache: g.cache},
		reader:     r,
		revs:       new(revCache),
	}
	t.lastUsed.Store(time.Now().UnixNano())
	t.refreshSnapshot(r)

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

// PollLive advances every live trace (store.Reader.Poll) and
// republishes its snapshot: new chunks extend the frontier, and a
// writer that closed flips its trace to served-complete mode — those
// ids are returned. Serialized against Refresh and Close; cheap when
// nothing is live.
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
		r := t.currentReader()
		if r == nil {
			continue // live traces are never evicted; defensive
		}
		advanced, perr := r.Poll()
		if perr != nil && firstErr == nil {
			firstErr = fmt.Errorf("query: poll %s: %w", t.ID, perr)
		}
		if advanced {
			t.refreshSnapshot(r)
		}
		if !t.Live() {
			closedIDs = append(closedIDs, t.ID)
		}
	}
	sort.Strings(closedIDs)
	return closedIDs, firstErr
}

// EvictCold demotes idle cold readers to save index memory: first
// every reader idle past ReaderTTL, then — if more than MaxReaders
// remain open — the least-recently-used down to the cap. Live
// follow-mode traces are exempt on both passes: their polls extend the
// index incrementally, so they simply age into eligibility when the
// writer closes and the trace goes cold. An evicted trace
// stays registered and queryable — the next query re-attaches, which
// is the demote-to-cold-re-attach contract from ROADMAP item 1.
// Returns the evicted ids, sorted.
func (g *Registry) EvictCold(now time.Time) []string {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	if g.isClosed() {
		return nil
	}
	g.mu.RLock()
	traces := make([]*Trace, 0, len(g.traces))
	for _, t := range g.traces {
		traces = append(traces, t)
	}
	g.mu.RUnlock()

	type cold struct {
		t    *Trace
		used int64
	}
	var open []cold
	for _, t := range traces {
		if t.Live() || t.currentReader() == nil {
			continue
		}
		open = append(open, cold{t, t.lastUsed.Load()})
	}
	var evicted []string
	evict := func(c cold) {
		if c.t.dropReader() {
			g.stats.evicted.Add(1)
			evicted = append(evicted, c.t.ID)
		}
	}
	if ttl := g.opts.ReaderTTL; ttl > 0 {
		remaining := open[:0]
		for _, c := range open {
			if now.Sub(time.Unix(0, c.used)) > ttl {
				evict(c)
			} else {
				remaining = append(remaining, c)
			}
		}
		open = remaining
	}
	if maxOpen := g.opts.MaxReaders; maxOpen > 0 && len(open) > maxOpen {
		sort.Slice(open, func(i, j int) bool { return open[i].used < open[j].used })
		for _, c := range open[:len(open)-maxOpen] {
			evict(c)
		}
	}
	sort.Strings(evicted)
	return evicted
}

// TrimTrace applies a retention policy to a closed trace's on-disk
// store (the janitor path — a live trace's writer owns its own
// retention and this refuses it), then republishes the snapshot under
// the store's bumped generation, which naturally invalidates result
// caches keyed on it.
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
	if removed == 0 {
		return 0, nil
	}
	// Swap in a reader over the trimmed store. In-flight queries
	// finish against the old reader's index; its trimmed segments read
	// as holes at worst, never as wrong data.
	t.dropReader()
	if _, _, err := t.acquire(); err != nil {
		return removed, err
	}
	return removed, nil
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
	t.dropReader()
	if purge {
		//scaldift:ignore lockio refreshMu serializes lifecycle ops by design; the query read path never takes it
		if err := os.RemoveAll(t.Dir); err != nil {
			return err
		}
	}
	return nil
}

// OpenReaders counts traces currently holding an attached reader.
func (g *Registry) OpenReaders() int {
	g.mu.RLock()
	traces := make([]*Trace, 0, len(g.traces))
	for _, t := range g.traces {
		traces = append(traces, t)
	}
	g.mu.RUnlock()
	n := 0
	for _, t := range traces {
		if t.currentReader() != nil {
			n++
		}
	}
	return n
}

// EvictedReaders returns how many readers EvictCold has dropped.
func (g *Registry) EvictedReaders() int64 { return g.stats.evicted.Load() }

// ReattachedReaders returns how many cold re-attaches queries have
// paid for.
func (g *Registry) ReattachedReaders() int64 { return g.stats.reattached.Load() }

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
		t.rmu.Lock()
		revs := t.revs
		t.rmu.Unlock()
		n += revs.bytes()
	}
	return n
}

// ChunkCacheStats snapshots the decoded-chunk cache the fleet's
// readers share. A reader's chunks leave it when eviction, deletion,
// a trim's reader swap or Close drops the reader.
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
		t.dropReader()
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

// refreshSnapshot republishes the trace's windows, chunk count,
// liveness, generation, recovery flag, and trimmed floors from r.
// Runs at registration, on cold re-attach, and after every poll that
// advanced the store.
func (t *Trace) refreshSnapshot(r *store.Reader) {
	chunks := r.Chunks()
	var threads []ThreadWindow
	for _, tid := range r.Threads() {
		lo, hi := r.Window(tid)
		threads = append(threads, ThreadWindow{TID: tid, Lo: lo, Hi: hi})
	}
	live := r.Live()
	gen := r.Generation()
	recovered := r.Recovered()
	var trimmed []TrimmedWindow
	for tid, lo := range r.Trimmed() {
		trimmed = append(trimmed, TrimmedWindow{TID: tid, Lo: lo})
	}
	sort.Slice(trimmed, func(i, j int) bool { return trimmed[i].TID < trimmed[j].TID })
	t.mu.Lock()
	t.chunks = chunks
	t.threads = threads
	t.live = live
	t.generation = gen
	t.recovered = recovered
	t.trimmed = trimmed
	t.mu.Unlock()
}

// Live reports whether the trace's writer had not yet closed as of
// the last poll.
func (t *Trace) Live() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Frontier returns the last published per-thread windows: for a live
// trace, the monotone frontier of instances that have landed; for a
// closed one, the full retained range.
func (t *Trace) Frontier() []ThreadWindow {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]ThreadWindow(nil), t.threads...)
}

// Info reports the trace's registry metadata (from the published
// snapshot — an evicted trace answers without re-attaching).
func (t *Trace) Info() TraceInfo {
	t.mu.RLock()
	info := TraceInfo{
		ID:         t.ID,
		Dir:        t.Dir,
		Threads:    append([]ThreadWindow(nil), t.threads...),
		Chunks:     t.chunks,
		Live:       t.live,
		Generation: t.generation,
		Recovered:  t.recovered,
		Trimmed:    append([]TrimmedWindow(nil), t.trimmed...),
	}
	t.mu.RUnlock()
	if a := t.attached.Load(); a != nil {
		info.Program = a.prog.Name
		info.Reconstructing = true
	}
	return info
}

// Generation returns the trace's last published manifest generation.
// It advances on every seal and trim, so it is the cache-invalidation
// token for anything derived from the trace's contents.
func (t *Trace) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.generation
}

// Program returns the attached program, if any.
func (t *Trace) Program() *isa.Program {
	if a := t.attached.Load(); a != nil {
		return a.prog
	}
	return nil
}

// Source builds the ddg.Source one query traverses: the shared
// reader (re-attached if evicted), viewed through the query's budget
// (nil = unlimited), with O1 reconstruction composed on top unless
// raw or no program is attached.
func (t *Trace) Source(b *store.Budget, raw bool) (ddg.Source, error) {
	src, _, err := t.source(b, raw)
	return src, err
}

// source is Source plus the reverse-index cache of the reader src
// reads.
func (t *Trace) source(b *store.Budget, raw bool) (ddg.Source, *revCache, error) {
	r, revs, err := t.acquire()
	if err != nil {
		return nil, nil, err
	}
	var src ddg.Source = r
	if b != nil {
		src = r.Budgeted(b)
	}
	if a := t.attached.Load(); a != nil && !raw {
		return a.recon.ReaderOver(src), revs, nil
	}
	return src, revs, nil
}

// Window returns the thread's last published range (lo = hi = 0 for
// unknown threads). For a live trace this is the frontier, so "the
// newest instance" criteria resolve against what has landed.
func (t *Trace) Window(tid int) (lo, hi uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, w := range t.threads {
		if w.TID == tid {
			return w.Lo, w.Hi
		}
	}
	return 0, 0
}
