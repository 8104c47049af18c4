// Command gfc-serve runs the generalized-Fibonacci-cube query service: an
// HTTP JSON API over the library's expensive computations (exact counting,
// classification, isometry checks, f-dimension, routing, traffic simulation,
// broadcast, Hamiltonian search) behind a sharded LRU cache with
// singleflight deduplication and a bounded worker pool.
//
// Usage:
//
//	gfc-serve [-addr :8080] [-workers N] [-timeout 30s] [-cache 256]
//	          [-maxdim 20] [-maxcountdim 100000]
//	          [-batch-size 32] [-batch-wait 500µs] [-batch-queue 128]
//	          [-batch-disabled]
//	          [-store-dir DIR] [-warm-pack DIR] [-store-max-bytes N]
//	          [-store-disabled]
//
// The hot query endpoints (count, rank, unrank, neighbors, word-mode
// route) sit behind a micro-batching front: concurrent requests for the
// same (f, d) lane are coalesced into one backend invocation. Tune with
// the -batch-* flags or turn it off with -batch-disabled.
//
// With -store-dir the expensive backends (explicit cube adjacency, DFA
// ranker tables) persist as content-addressed artifacts: restarts load
// them zero-copy via mmap instead of rebuilding. -warm-pack additionally
// mounts a read-only pack built by gfc-pack, preloading its precomputed
// verdicts at startup. Corrupt artifacts always fall back to compute.
//
// Endpoints (all GET unless noted, JSON responses; see internal/README.md
// for details):
//
//	/healthz                          liveness probe
//	/stats                            cache / worker-pool / batcher / store metrics
//	/metrics                          Prometheus text exposition
//	/v1/count?f=11&d=100              exact |V|, |E|, |S| of Q_d(f)
//	/v1/classify?f=1100&d=9           paper classification + Table 1 row
//	/v1/isometric?f=101&d=6           exact embeddability with witness
//	/v1/fdim?f=11&graph=cycle&n=6     f-dimension of a guest graph
//	/v1/route?f=11&d=8&src=..&dst=..  routed walk (word|greedy|oracle|deroute)
//	/v1/simulate?f=11&d=8             store-and-forward traffic simulation
//	/v1/broadcast?f=11&d=8&root=..    one-to-all BFS-tree broadcast
//	/v1/hamilton?f=11&d=8             bounded Hamiltonian path/cycle search
//	/v1/admin/store                   artifact-store inventory and counters
//	/v1/admin/warm (POST)             preload backends from the store/pack
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gfcube/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-serve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent heavy jobs (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-job compute deadline")
	cache := flag.Int("cache", 256, "result-cache capacity per shard")
	maxDim := flag.Int("maxdim", 20, "largest d for explicit cube construction")
	maxCountDim := flag.Int("maxcountdim", 100000, "largest d for the counting DP")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown drain period")
	batchSize := flag.Int("batch-size", 0, "max requests coalesced per backend call (0 = default 32)")
	batchWait := flag.Duration("batch-wait", 0, "batch window: how long the first request waits for followers (0 = default 500µs)")
	batchQueue := flag.Int("batch-queue", 0, "queued requests per lane before shedding (0 = default 4×batch-size)")
	batchDisabled := flag.Bool("batch-disabled", false, "serve every query request individually (no coalescing)")
	storeDir := flag.String("store-dir", "", "artifact store directory: load precomputed backends, write back misses")
	warmPack := flag.String("warm-pack", "", "read-only warm-start pack directory built by gfc-pack")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "store directory size cap in bytes (0 = uncapped)")
	storeDisabled := flag.Bool("store-disabled", false, "force pure-compute operation even with -store-dir/-warm-pack")
	flag.Parse()

	srv, err := service.New(service.Config{
		Addr:          *addr,
		Workers:       *workers,
		JobTimeout:    *timeout,
		CacheCapacity: *cache,
		MaxBuildDim:   *maxDim,
		MaxCountDim:   *maxCountDim,
		Batch: service.BatcherConfig{
			BatchSize:  *batchSize,
			MaxWait:    *batchWait,
			QueueLimit: *batchQueue,
		},
		BatchDisabled: *batchDisabled,
		StoreDir:      *storeDir,
		WarmPack:      *warmPack,
		StoreMaxBytes: *storeMaxBytes,
		StoreDisabled: *storeDisabled,
	})
	if err != nil {
		log.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-sigc:
		log.Printf("received %v, draining for up to %v", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		log.Printf("bye")
	}
}
