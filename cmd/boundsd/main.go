// Command boundsd serves the paper's bounds over HTTP: a JSON API over
// the scenario registry (crash / byzantine / probabilistic) backed by
// the shared evaluation engine with a bounded LRU result cache.
//
//	boundsd -addr :8080 -workers 0 -cache 4096 -timeout 30s -heartbeat 10s
//
// Passing -pprof ADDR (off by default) additionally serves the
// net/http/pprof profiling handlers on their own mux and listener at
// ADDR — deliberately separate from the API address, so profiling
// never rides on the public surface:
//
//	boundsd -addr :8080 -pprof 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
//	curl localhost:8080/healthz
//	curl 'localhost:8080/v1/bounds?m=2&k=3&f=1'
//	curl 'localhost:8080/v1/bounds?m=2&kmax=8&format=markdown'
//	curl 'localhost:8080/v1/verify?m=2&k=3&f=1&horizon=200000'
//	curl 'localhost:8080/v1/sweep?m=2&kmax=6&format=markdown'
//	curl -N -H 'Accept: application/x-ndjson' 'localhost:8080/v1/sweep?m=2&kmax=6'
//	curl 'localhost:8080/v1/simulate?m=2&k=3&f=1&horizon=50&format=markdown'
//	curl 'localhost:8080/v1/simulate?model=pfaulty-halfline&m=1&k=1&f=0&p=0.25'
//	curl -d '[{"op":"bounds","m":2,"k":3,"f":1},{"op":"verify","m":2,"k":3,"f":1}]' localhost:8080/v1/batch
//	curl localhost:8080/v1/scenarios
//	curl localhost:8080/metrics
//
// Request timeouts cancel the underlying computation cooperatively (a
// timed-out sweep stops consuming engine workers within one cell), and
// NDJSON sweeps stream rows as cells finish with '#' heartbeat comments
// every -heartbeat while idle. The process shuts down gracefully on
// SIGINT/SIGTERM: in-flight requests get a drain window before the
// listener closes.
//
// Warm starts: -snapshot PATH restores the engine result cache (and
// the solver's golden-section bases) from PATH at startup and writes
// it back atomically on graceful shutdown; a missing, corrupt or
// schema-mismatched snapshot is a logged cold start, never a failure.
// -precompute additionally fills the cache with the Theorem-1 grid and
// the loadgen sampler pools before the node reports ready. While warming, /readyz
// answers 503 (and /healthz 200) so load balancers hold traffic
// without restarting the process:
//
//	boundsd -addr :8080 -snapshot /var/lib/boundsd/cache.snap -precompute
//	curl localhost:8080/readyz
//
// Admission control classifies every request by cost: closed-form
// bounds bypass the queue, analytic verification takes one of
// -max-inflight slots (503 when the budget runs out before a slot
// frees), and Monte-Carlo-class work takes one of -max-inflight-heavy
// slots, waiting at most -shed-after before the request is shed with
// 429 + Retry-After — so a flood of simulations can never starve the
// cheap traffic out of its SLO.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// options carries the daemon's configuration from flags to run.
type options struct {
	addr              string
	workers           int
	cache             int
	timeout           time.Duration
	heartbeat         time.Duration
	drain             time.Duration
	pprofAddr         string // "" = pprof off
	snapshot          string // "" = persistence off
	precompute        bool
	maxInflight       int
	maxInflightHeavy  int
	shedAfter         time.Duration
	ready, pprofReady func(addr string) // test hooks for :0 listeners
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.IntVar(&opts.workers, "workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	flag.IntVar(&opts.cache, "cache", server.DefaultCacheCapacity, "engine LRU result-cache capacity (0 = unbounded)")
	flag.DurationVar(&opts.timeout, "timeout", server.DefaultTimeout, "per-request compute budget")
	flag.DurationVar(&opts.heartbeat, "heartbeat", server.DefaultHeartbeat, "NDJSON sweep-stream heartbeat interval")
	flag.DurationVar(&opts.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	flag.StringVar(&opts.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	flag.StringVar(&opts.snapshot, "snapshot", "", "engine cache snapshot path: restored at startup, written on graceful shutdown (empty = off)")
	flag.BoolVar(&opts.precompute, "precompute", false, "warm the engine cache with the Theorem-1 grid and the pooled scenario requests before reporting ready")
	flag.IntVar(&opts.maxInflight, "max-inflight", 0, "cap on concurrently admitted compute requests (0 = default)")
	flag.IntVar(&opts.maxInflightHeavy, "max-inflight-heavy", 0, "cap on concurrently admitted Monte-Carlo-class requests (0 = max-inflight/4)")
	flag.DurationVar(&opts.shedAfter, "shed-after", 0, "how long a Monte-Carlo-class request waits for a heavy slot before shedding with 429 (0 = default)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "boundsd:", err)
		os.Exit(1)
	}
}

// pprofMux builds the profiling mux: the net/http/pprof handlers,
// registered explicitly so they live on their own listener and never
// leak onto the API surface (the API server uses its own mux, so the
// package's DefaultServeMux registration is inert).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run serves until ctx is cancelled, then drains gracefully. The ready
// hooks, if non-nil, receive the bound addresses once the listeners are
// up (the test hooks for :0 addresses).
func run(ctx context.Context, opts options) error {
	// With a snapshot or precompute pass configured the daemon serves
	// immediately but answers 503 on /readyz until the warmup goroutine
	// below finishes — load balancers hold traffic, probes (and
	// /healthz) see a live process.
	warming := opts.snapshot != "" || opts.precompute
	eng := engine.NewWithCache(opts.workers, opts.cache)
	handler := server.New(server.Config{
		Engine:           eng,
		Timeout:          opts.timeout,
		Heartbeat:        opts.heartbeat,
		MaxInflight:      opts.maxInflight,
		MaxInflightHeavy: opts.maxInflightHeavy,
		ShedAfter:        opts.shedAfter,
		StartUnready:     warming,
	})
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if opts.pprofAddr != "" {
		pln, err := net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		psrv := &http.Server{
			Handler:           pprofMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		// Best-effort lifecycle: the profiler dies with the process; it
		// never delays the API server's graceful drain.
		go psrv.Serve(pln)
		defer psrv.Close()
		log.Printf("boundsd: pprof on %s", pln.Addr())
		if opts.pprofReady != nil {
			opts.pprofReady(pln.Addr().String())
		}
	}
	log.Printf("boundsd: listening on %s (workers=%d cache=%d timeout=%v)",
		ln.Addr(), handler.Engine().Workers(), handler.Engine().CacheCapacity(), opts.timeout)
	if opts.ready != nil {
		opts.ready(ln.Addr().String())
	}
	if warming {
		// Warm in the background: restore first (so precompute finds its
		// keys already cached), then precompute, then flip /readyz. Both
		// steps are best-effort — a bad snapshot or a cancelled pass
		// still ends in a serving node.
		go func() {
			if opts.snapshot != "" {
				restoreSnapshot(eng, opts.snapshot)
			}
			if opts.precompute {
				if st, err := handler.Precompute(ctx, precomputeSpec()); err != nil {
					log.Printf("boundsd: precompute aborted after %d jobs: %v", st.Jobs, err)
				} else {
					log.Printf("boundsd: precomputed %d jobs (%d failed)", st.Jobs, st.Failed)
				}
			}
			handler.SetReady(true)
			log.Printf("boundsd: ready")
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("boundsd: shutting down (drain %v)", opts.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if opts.snapshot != "" {
		// The drain is over, so the cache is quiescent: persist it for
		// the next process's warm start.
		snapshotNow(eng, opts.snapshot)
	}
	log.Printf("boundsd: stopped")
	return nil
}
