// Command tracequeryd is the trace query service daemon: it watches
// one or more root directories for trace stores (internal/store),
// holds open readers over the fleet, and serves slice and
// taint-provenance queries over HTTP (internal/query).
//
//	tracequeryd -addr :8733 -root /var/traces -refresh 10s
//
// Newly closed trace directories under the roots are picked up by the
// periodic refresh (or POST /v1/refresh) without a restart. With
// -live (the default), directories still being recorded register too:
// the daemon tails them on the faster -live-refresh ticker, slices
// answer against the advancing frontier with live: true, and the
// trace flips to served-complete the moment its writer closes. With
// -attach-workloads, traces whose directory name matches a built-in
// workload ("<name>" or "<name>-...") get that workload's program
// attached, enabling statement-level lines, O1 reconstruction, and
// provenance; traces recorded outside the built-in suite are served
// as raw PC sets.
//
// Each registered trace keeps one reader until it is deleted or the
// daemon exits. -cache-bytes is the one memory bound: the decoded
// chunks every reader serves from and the reverse indexes forward
// queries walk share it, oldest admitted evicted first. With
// -retain-bytes or -retain-age set, the -janitor ticker trims closed
// traces on disk (whole sealed segments, oldest first, the trimmed
// window reported on every answer), and each trace's reader prunes the
// trimmed segments in place. DELETE /v1/traces/{id} (?purge=1) retires
// a trace outright.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/query"
	"scaldift/internal/store"
)

// multiFlag collects a repeatable -root flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var roots multiFlag
	addr := flag.String("addr", ":8733", "listen address")
	flag.Var(&roots, "root", "trace root directory (repeatable); each root and its immediate subdirectories are scanned for stores")
	refresh := flag.Duration("refresh", 10*time.Second, "registry refresh interval (0 disables the timer; POST /v1/refresh still works)")
	live := flag.Bool("live", true, "register stores still being recorded and tail them while they run")
	liveRefresh := flag.Duration("live-refresh", time.Second, "poll interval for live traces' frontiers (needs -live; 0 disables the poller)")
	maxQueries := flag.Int("max-queries", 4, "concurrent slice/provenance query limit")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-query deadline")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "clamp on requested per-query deadlines")
	budget := flag.Int64("budget-chunks", 0, "default per-query chunk-load budget (0 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte budget of the cache every trace reader shares: decoded chunks and reverse indexes (0 = store default, 64 MiB)")
	attach := flag.Bool("attach-workloads", true, "attach built-in workload programs to traces named after them")
	resultCache := flag.Int("result-cache", 0, "LRU result-cache entries for completed slice answers (0 = default 256, negative disables)")
	retainBytes := flag.Int64("retain-bytes", 0, "per-trace sealed-segment byte budget the janitor trims closed stores down to (0 = retain everything)")
	retainAge := flag.Duration("retain-age", 0, "delete sealed segments older than this (0 = no age limit)")
	janitor := flag.Duration("janitor", time.Minute, "retention-trim sweep interval, with -retain-bytes or -retain-age set (0 disables)")
	flag.Parse()
	if len(roots) == 0 {
		fmt.Fprintln(os.Stderr, "tracequeryd: at least one -root is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := query.NewRegistry(roots, query.RegistryOptions{
		CacheBytes: *cacheBytes,
		Live:       *live,
	})
	// onAdded runs for every discovery path — the startup scan, the
	// ticker, and POST /v1/refresh (via ServerOptions.OnRefresh) — so
	// a trace gets its program no matter which refresher finds it.
	onAdded := func(added []string) {
		if *attach {
			attachWorkloads(reg, added)
		}
		if len(added) > 0 {
			log.Printf("registered %d trace(s): %s (fleet: %d)", len(added), strings.Join(added, ", "), reg.Len())
		}
	}
	refreshOnce := func() {
		added, err := reg.Refresh()
		if err != nil && !errors.Is(err, query.ErrClosed) {
			log.Printf("refresh: %v", err)
		}
		onAdded(added)
	}
	refreshOnce()
	log.Printf("serving %d trace(s) from %d root(s) on %s", reg.Len(), len(roots), *addr)

	srv := &http.Server{
		Addr: *addr,
		Handler: query.NewServer(reg, query.ServerOptions{
			MaxConcurrent:      *maxQueries,
			DefaultDeadline:    *deadline,
			MaxDeadline:        *maxDeadline,
			BudgetChunkLoads:   *budget,
			OnRefresh:          onAdded,
			ResultCacheEntries: *resultCache,
		}).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Ticker goroutines are tracked by the WaitGroup so shutdown can
	// wait out an in-flight refresh before closing the registry — a
	// refresh racing Close would otherwise open readers nobody owns.
	stop := make(chan struct{})
	var tickers sync.WaitGroup
	if *refresh > 0 {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(*refresh)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					refreshOnce()
				case <-stop:
					return
				}
			}
		}()
	}
	if *live && *liveRefresh > 0 {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(*liveRefresh)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// The fast path: only live frontiers are polled, so
					// with nothing live this is a map sweep, not I/O.
					if reg.LiveCount() == 0 {
						continue
					}
					closed, err := reg.PollLive()
					if err != nil && !errors.Is(err, query.ErrClosed) {
						log.Printf("live poll: %v", err)
					}
					if len(closed) > 0 {
						log.Printf("trace(s) finished recording: %s", strings.Join(closed, ", "))
					}
				case <-stop:
					return
				}
			}
		}()
	}

	ret := store.Retention{MaxBytes: *retainBytes, MaxAge: *retainAge}
	if *janitor > 0 && (ret.MaxBytes > 0 || ret.MaxAge > 0) {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(*janitor)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					janitorSweep(reg, ret)
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case s := <-sig:
		log.Printf("signal %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
	// Orderly teardown: stop the tickers, wait for any in-flight
	// refresh or poll to drain, then close the registry. Registry
	// methods called after this point return query.ErrClosed instead
	// of opening fresh readers into a dead process.
	close(stop)
	tickers.Wait()
	if err := reg.Close(); err != nil {
		log.Printf("registry close: %v", err)
	}
}

// janitorSweep trims every closed trace down to the retention policy
// (live traces skip — their writers own retention), logging each trim.
func janitorSweep(reg *query.Registry, ret store.Retention) {
	for _, info := range reg.List() {
		if info.Live {
			continue
		}
		removed, err := reg.TrimTrace(info.ID, ret)
		if err != nil && !errors.Is(err, query.ErrClosed) && !errors.Is(err, query.ErrUnknownTrace) {
			log.Printf("janitor trim %s: %v", info.ID, err)
			continue
		}
		if removed > 0 {
			log.Printf("janitor: trimmed %d segment(s) from %s", removed, info.ID)
		}
	}
}

// attachWorkloads attaches built-in workload programs to newly added
// traces whose id is the workload name, optionally followed by a "-"
// suffix (the recording convention "<workload>-<run>") and/or the
// registry's "@tag" id-collision suffix.
func attachWorkloads(reg *query.Registry, ids []string) {
	byName := make(map[string]*prog.Workload)
	for _, w := range prog.All() {
		byName[w.Name] = w
	}
	opts := ontrac.StaticOptions()
	for _, id := range ids {
		name := id
		if i := strings.IndexByte(name, '@'); i > 0 {
			name = name[:i]
		}
		if i := strings.IndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		w, ok := byName[name]
		if !ok {
			continue
		}
		if err := reg.AttachProgram(id, w.Prog, opts); err != nil {
			log.Printf("attach %s: %v", id, err)
			continue
		}
		log.Printf("trace %s: attached program %q (O1 reconstruction on)", id, w.Name)
	}
}
