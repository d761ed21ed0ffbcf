// Command hcserve runs the HTTP/JSON solver service: pooled solver sessions,
// a bounded admission queue with backpressure, per-request deadlines, a
// deterministic replay cache, and streaming progress — the deployable runtime
// over the repository's algorithms.
//
// Endpoints:
//
//	POST /solve         one solve request -> JSON outcome (cacheable)
//	POST /solve/stream  same request -> ndjson progress events + final result
//	GET  /healthz       liveness probe
//	GET  /stats         queue/cache/pool counters
//
// Example:
//
//	hcserve -addr :8080 -concurrency 4 -queue 128 &
//	curl -s localhost:8080/solve -d '{"family":"gnp","n":256,"param":3,
//	    "delta":0.5,"algo":"dra","engine":"step","seed":7}'
//
// SIGINT/SIGTERM drain gracefully: the listener closes immediately, in-flight
// solves run to completion (bounded by -grace), and the process exits 0.
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
	"syscall"
	"time"

	"dhc/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hcserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		concurrency = flag.Int("concurrency", 2, "max simultaneously executing solves")
		queue       = flag.Int("queue", 64, "max requests waiting for a solve slot; beyond it requests get 429 + Retry-After")
		cache       = flag.Int("cache", 1024, "replay cache entries (0 disables); hits replay byte-identical responses for free")
		workers     = flag.Int("workers", 1, "step-engine worker pool per solve (byte-identical results at any value)")
		maxTimeout  = flag.Duration("max-timeout", 60*time.Second, "hard cap on any request's solve deadline")
		maxN        = flag.Int("max-n", 1<<20, "reject instances above this vertex count")
		grace       = flag.Duration("grace", 2*time.Minute, "shutdown drain budget for in-flight solves")
	)
	flag.Parse()

	// The serve.Config zero values mean "default"; the CLI spells "disabled"
	// as 0, so translate that to the config's negative form.
	cacheEntries := *cache
	if cacheEntries == 0 {
		cacheEntries = -1
	}
	queueSlots := *queue
	if queueSlots == 0 {
		queueSlots = -1
	}
	svc := serve.New(serve.Config{
		Concurrency:  *concurrency,
		Queue:        queueSlots,
		CacheEntries: cacheEntries,
		Workers:      *workers,
		MaxTimeout:   *maxTimeout,
		MaxN:         *maxN,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("hcserve: listening on %s (concurrency=%d queue=%d cache=%d workers=%d)",
			*addr, *concurrency, *queue, *cache, *workers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight solves finish. Requests
	// still queued inherit the drain budget through their own contexts.
	log.Printf("hcserve: signal received; draining in-flight solves (budget %s)", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("hcserve: drained; bye")
	return nil
}
