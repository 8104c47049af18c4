// Package service implements gfc-serve: an HTTP JSON API over the
// generalized-Fibonacci-cube library. The expensive computations — exact
// counting via the transfer-matrix DP, explicit cube construction, exact
// isometry checks, f-dimension search, routing and traffic simulation,
// Hamiltonian search — sit behind a sharded LRU result cache with
// singleflight deduplication and a bounded worker pool with per-request
// timeouts. The hot addressing endpoints additionally run behind a
// micro-batching front (see batcher.go) that fuses concurrent same-class
// traffic into single backend invocations, and every request is recorded
// into the lock-cheap aggregates served by /metrics (see metrics.go), so
// the service stays responsive and observable under concurrent load.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"gfcube/internal/core"
	"gfcube/internal/store"
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// Workers bounds concurrent heavy jobs (default GOMAXPROCS).
	Workers int
	// JobTimeout is the per-job compute deadline (default 30s).
	JobTimeout time.Duration
	// CacheShards and CacheCapacity size the result cache (defaults 16
	// shards x 256 entries).
	CacheShards   int
	CacheCapacity int
	// CubeCacheCapacity bounds the number of explicitly constructed cubes
	// kept in memory across requests (default 32 per shard, 4 shards).
	CubeCacheCapacity int
	// MaxBuildDim caps d for endpoints that construct Q_d(f) explicitly
	// (default 20; hard limit core.MaxBuildDim = 30). Addressing and word
	// routing are not bound by it: they run on the implicit DFA-rank
	// backend up to d = bitstr.MaxLen = 62.
	MaxBuildDim int
	// MaxCountDim caps d for the counting DP (default 100000).
	MaxCountDim int
	// MaxFactorLen caps |f| (default 24).
	MaxFactorLen int
	// Batch tunes the micro-batching front on the hot query endpoints
	// (/v1/rank, /v1/unrank, /v1/neighbors, /v1/count, word-router
	// /v1/route); see BatcherConfig for the knobs and defaults.
	Batch BatcherConfig
	// BatchDisabled turns the batching front off: every request computes
	// solo through the cache/singleflight/pool path (the pre-batching
	// behavior). Exists for A/B load comparisons.
	BatchDisabled bool
	// StoreDir is the read-write artifact store directory: cube and ranker
	// backends load from it when a valid artifact exists and write back
	// when computed. Empty (with no WarmPack) disables the store.
	StoreDir string
	// WarmPack mounts a read-only warm-start pack directory (built by
	// gfc-pack): its artifacts back the store read path and its verdict
	// sidecar is preloaded into the result cache at startup.
	WarmPack string
	// StoreMaxBytes caps StoreDir's size (see store.Config.MaxBytes).
	StoreMaxBytes int64
	// StoreDisabled forces pure-compute operation even when StoreDir or
	// WarmPack is set. Exists for cold/warm A/B load comparisons.
	StoreDisabled bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 256
	}
	if c.CubeCacheCapacity <= 0 {
		c.CubeCacheCapacity = 32
	}
	if c.MaxBuildDim <= 0 {
		c.MaxBuildDim = 20
	}
	if c.MaxBuildDim > core.MaxBuildDim {
		c.MaxBuildDim = core.MaxBuildDim
	}
	if c.MaxCountDim <= 0 {
		c.MaxCountDim = 100000
	}
	if c.MaxFactorLen <= 0 {
		c.MaxFactorLen = 24
	}
	c.Batch = c.Batch.withDefaults()
	return c
}

// batchOps are the operations behind the micro-batching front; the list
// fixes the op label set of the batch metrics.
var batchOps = []string{"count", "neighbors", "rank", "route", "unrank"}

// endpointPaths are the instrumented routes; the list fixes the endpoint
// label set of the request metrics.
var endpointPaths = []string{
	"/v1/count", "/v1/rank", "/v1/unrank", "/v1/neighbors",
	"/v1/classify", "/v1/isometric", "/v1/fdim", "/v1/route",
	"/v1/simulate", "/v1/broadcast", "/v1/hamilton",
	"/v1/sweep/classify", "/v1/sweep/survey", "/v1/sweep/count",
	"/v1/sweep/fdim", "/v1/sweep/degrees", "/v1/sweep/wiener",
	"/v1/admin/store", "/v1/admin/warm",
}

// Server is the gfc-serve HTTP service.
type Server struct {
	cfg      Config
	cache    *Cache // JSON result cache
	cubes    *Cache // backend view cache (cubes + implicit rankers)
	pool     *Pool
	batcher  *Batcher        // nil when batching is disabled
	store    *store.Store    // nil when the store is disabled
	provider *store.Provider // never nil; degenerates to compute
	pack     *store.Manifest // mounted warm-pack manifest, nil without one
	metrics  *Metrics
	start    time.Time

	requests atomic.Uint64
	errors   atomic.Uint64

	http *http.Server
}

// New builds a Server from cfg (zero value accepted). It fails only on
// store configuration errors: an unreadable store directory, or a
// missing/corrupt warm-pack manifest or verdict sidecar — a mounted pack
// that cannot be trusted is a startup error, not something to limp past.
// Artifact-level corruption, in contrast, never fails anything: it falls
// back to compute at request time.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheShards, cfg.CacheCapacity),
		cubes:   NewCache(4, cfg.CubeCacheCapacity),
		pool:    NewPool(cfg.Workers, cfg.JobTimeout),
		metrics: NewMetrics(endpointPaths, batchOps),
		start:   time.Now(),
	}
	if !cfg.StoreDisabled && (cfg.StoreDir != "" || cfg.WarmPack != "") {
		st, err := store.Open(store.Config{Dir: cfg.StoreDir, PackDir: cfg.WarmPack, MaxBytes: cfg.StoreMaxBytes})
		if err != nil {
			return nil, err
		}
		s.store = st
		if cfg.WarmPack != "" {
			man, err := store.LoadManifest(cfg.WarmPack)
			if err != nil {
				return nil, err
			}
			s.pack = &man
			verdicts, err := store.LoadVerdicts(cfg.WarmPack)
			if err != nil {
				return nil, err
			}
			s.warmVerdicts(verdicts)
		}
	}
	s.provider = store.NewProvider(s.store)
	if !cfg.BatchDisabled {
		s.batcher = NewBatcher(cfg.Batch, s.metrics)
	}
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// Handler returns the route table; it is exported for tests and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/count", s.instrument("/v1/count", s.handleCount))
	mux.HandleFunc("GET /v1/rank", s.instrument("/v1/rank", s.handleRank))
	mux.HandleFunc("GET /v1/unrank", s.instrument("/v1/unrank", s.handleUnrank))
	mux.HandleFunc("GET /v1/neighbors", s.instrument("/v1/neighbors", s.handleNeighbors))
	mux.HandleFunc("GET /v1/classify", s.instrument("/v1/classify", s.handleClassify))
	mux.HandleFunc("GET /v1/isometric", s.instrument("/v1/isometric", s.handleIsometric))
	mux.HandleFunc("GET /v1/fdim", s.instrument("/v1/fdim", s.handleFDim))
	mux.HandleFunc("GET /v1/route", s.instrument("/v1/route", s.handleRoute))
	mux.HandleFunc("GET /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	mux.HandleFunc("GET /v1/broadcast", s.instrument("/v1/broadcast", s.handleBroadcast))
	mux.HandleFunc("GET /v1/hamilton", s.instrument("/v1/hamilton", s.handleHamilton))
	mux.HandleFunc("GET /v1/sweep/classify", s.instrument("/v1/sweep/classify", s.handleSweepClassify))
	mux.HandleFunc("GET /v1/sweep/survey", s.instrument("/v1/sweep/survey", s.handleSweepSurvey))
	mux.HandleFunc("GET /v1/sweep/count", s.instrument("/v1/sweep/count", s.handleSweepCount))
	mux.HandleFunc("GET /v1/sweep/fdim", s.instrument("/v1/sweep/fdim", s.handleSweepFDim))
	mux.HandleFunc("GET /v1/sweep/degrees", s.instrument("/v1/sweep/degrees", s.handleSweepDegrees))
	mux.HandleFunc("GET /v1/sweep/wiener", s.instrument("/v1/sweep/wiener", s.handleSweepWiener))
	mux.HandleFunc("GET /v1/admin/store", s.instrument("/v1/admin/store", s.handleAdminStore))
	mux.HandleFunc("POST /v1/admin/warm", s.instrument("/v1/admin/warm", s.handleAdminWarm))
	// Requests no route matches get the v1 envelope: 405 when the path is
	// served under another method, 404 otherwise.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, m := range []string{http.MethodGet, http.MethodPost} {
			if _, p := mux.Handler(&http.Request{Method: m, Host: r.Host, URL: r.URL}); p != "/" {
				allow = append(allow, m)
			}
		}
		if len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeBadRequest,
				msg: fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path)})
			return
		}
		writeError(w, notFound("no endpoint %s", r.URL.Path))
	})
	return mux
}

// ListenAndServe runs the HTTP server until Shutdown or a listener error.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Shutdown drains in-flight requests and stops the server: first the HTTP
// listener (handlers blocked on batch lanes keep being served while they
// drain), then the batching front.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	if s.batcher != nil {
		s.batcher.Close()
	}
	return err
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// sampleKey carries the request's RequestSample through context so
// handlers can annotate batching/cache facts the middleware cannot see.
type sampleKey struct{}

func sampleFrom(ctx context.Context) *RequestSample {
	s, _ := ctx.Value(sampleKey{}).(*RequestSample)
	return s
}

// statusWriter captures the response status for the request metrics. It
// forwards Flush so the streaming sweep handlers still see a Flusher.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request/error accounting and the
// per-request metrics sample.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Add(1)
		sample := &RequestSample{Endpoint: endpoint}
		sw := &statusWriter{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), sampleKey{}, sample))
		if err := h(sw, r); err != nil {
			s.errors.Add(1)
			writeError(sw, err)
		}
		sample.Code = sw.code
		if sample.Code == 0 {
			sample.Code = http.StatusOK
		}
		sample.Latency = time.Since(start)
		s.metrics.Record(sample)
	}
}

// compute runs fn behind the result cache (singleflight) and the worker
// pool, and reports whether the value came from cache. The computation is
// detached from the leader request's cancellation so that one client's
// disconnect cannot fail the deduplicated followers (and the finished
// result still lands in the cache); it stays bounded by a deadline covering
// slot acquisition plus the pool's own per-job timeout.
func (s *Server) compute(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, bool, error) {
	return s.cache.Do(ctx, key, func(ctx context.Context) (any, error) {
		detached := context.WithoutCancel(ctx)
		if s.cfg.JobTimeout > 0 {
			var cancel context.CancelFunc
			detached, cancel = context.WithTimeout(detached, 2*s.cfg.JobTimeout)
			defer cancel()
		}
		return s.pool.Run(detached, fn)
	})
}

// cubeEntry and implEntry pair a resolved backend with where the
// provider got it, so LRU-cached views keep reporting their provenance.
type cubeEntry struct {
	c   *core.Cube
	src core.Source
}

type implEntry struct {
	im  *core.Implicit
	src core.Source
}

// cube returns the explicitly constructed Q_d(f), resolving it through
// the artifact-store provider (load-or-compute) at most once per (f, d)
// across concurrent requests. The Source is "store" or "computed" when
// this call resolved the view, "cache" when the view LRU already held it.
func (s *Server) cube(ctx context.Context, f factorParam, d int) (*core.Cube, core.Source, error) {
	key := fmt.Sprintf("cube|%s|%d", f.s, d)
	v, cached, err := s.cubes.Do(ctx, key, func(ctx context.Context) (any, error) {
		c, src, err := s.provider.Cube(ctx, d, f.w)
		if err != nil {
			return nil, err
		}
		return cubeEntry{c: c, src: src}, nil
	})
	if err != nil {
		return nil, core.SourceComputed, err
	}
	e := v.(cubeEntry)
	if cached {
		return e.c, core.SourceCache, nil
	}
	return e.c, e.src, nil
}

// implicitView returns the implicit DFA-rank backend for Q_d(f),
// resolving its O(|f|·d) ranker tables through the artifact-store
// provider at most once per (f, d) across concurrent requests. The
// addressing endpoints (/v1/rank, /v1/unrank, /v1/neighbors) and word
// routing always use it — the tables are far cheaper than any explicit
// construction, the answers agree exactly with the explicit cube, and d
// may exceed MaxBuildDim all the way to bitstr.MaxLen. The tables share
// the LRU that caches constructed cubes; Source semantics match cube.
func (s *Server) implicitView(ctx context.Context, f factorParam, d int) (*core.Implicit, core.Source, error) {
	key := fmt.Sprintf("impl|%s|%d", f.s, d)
	v, cached, err := s.cubes.Do(ctx, key, func(ctx context.Context) (any, error) {
		im, src, err := s.provider.Implicit(ctx, d, f.w)
		if err != nil {
			return nil, err
		}
		return implEntry{im: im, src: src}, nil
	})
	if err != nil {
		return nil, core.SourceComputed, err
	}
	e := v.(implEntry)
	if cached {
		return e.im, core.SourceCache, nil
	}
	return e.im, e.src, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	batches, batched, shed := s.metrics.BatchTotals()
	colReuse, colRebuild := core.ColumnCounters()
	lanes := 0
	if s.batcher != nil {
		lanes = s.batcher.Lanes()
	}
	resp := StatsResponse{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		Errors:          s.errors.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheHitRate:    rate,
		CacheEntries:    s.cache.Len(),
		CubeCacheLen:    s.cubes.Len(),
		Workers:         s.pool.Workers(),
		InFlightJobs:    s.pool.InFlight(),
		CompletedJobs:   s.pool.Completed(),
		RejectedJobs:    s.pool.Rejected(),
		AvgJobLatencyMs: float64(s.pool.AvgLatency()) / float64(time.Millisecond),
		Batches:         batches,
		BatchedRequests: batched,
		BatchShed:       shed,
		BatchLanes:      lanes,
		ColumnReuse:     colReuse,
		ColumnRebuild:   colRebuild,
	}
	if s.store != nil {
		resp.Store = &StoreStatsResponse{
			Stats:    s.store.Stats(),
			Computed: s.provider.Computed(),
			WarmPack: s.pack,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
