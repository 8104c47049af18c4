package service

import (
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gfcube/internal/core"
	"gfcube/internal/store"
)

// Observability layer: flat per-request samples recorded into lock-cheap
// aggregates, rendered as Prometheus text format by /metrics.
//
// Everything on the record path is a handful of atomic adds and stores —
// no mutex, no allocation — so instrumenting the hot endpoints costs
// nanoseconds per request:
//
//   - cumulative log-scale latency histograms (power-of-two buckets from
//     1µs), one per endpoint, Prometheus-histogram compatible;
//   - a sliding window of the most recent latencies per endpoint (a
//     lock-free ring), from which /metrics computes p50/p99 at scrape
//     time — quantiles over recent traffic, not over process lifetime;
//   - batch occupancy and queue-wait histograms per operation, plus
//     dispatch/shed counters;
//   - request counters by endpoint and status class.
//
// Cache hit rates and worker-pool gauges are pulled from the live Cache
// and Pool at scrape time rather than double-counted here.

// latBuckets are power-of-two nanosecond histogram bounds: bucket i
// covers latencies < 1µs·2^i, the last bucket is +Inf.
const (
	latBucketCount = 26 // 1µs << 25 ≈ 33.5s, beyond any JobTimeout
	windowSize     = 512
)

// latBucketIndex maps a duration to its histogram bucket.
func latBucketIndex(d time.Duration) int {
	us := uint64(d) / 1000
	i := bits.Len64(us) // 0 for sub-µs, else floor(log2(us))+1
	if i >= latBucketCount {
		i = latBucketCount - 1
	}
	return i
}

// latBucketBound returns bucket i's upper bound in seconds.
func latBucketBound(i int) float64 {
	return float64(uint64(1000)<<i) / 1e9
}

// histogram is a cumulative log-scale latency histogram.
type histogram struct {
	buckets  [latBucketCount]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[latBucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// window is a lock-free ring of the most recent latency samples. Slots
// hold nanoseconds+1 so zero means "never written"; writes may race on a
// wrapped slot and one sample wins — fine for quantile estimation.
type window struct {
	next  atomic.Uint64
	slots [windowSize]atomic.Int64
}

func (w *window) record(d time.Duration) {
	i := (w.next.Add(1) - 1) % windowSize
	w.slots[i].Store(int64(d) + 1)
}

// snapshot returns the recorded samples in the window, unsorted.
func (w *window) snapshot() []time.Duration {
	out := make([]time.Duration, 0, windowSize)
	for i := range w.slots {
		if v := w.slots[i].Load(); v > 0 {
			out = append(out, time.Duration(v-1))
		}
	}
	return out
}

// quantiles returns the qs quantiles (each in [0, 1]) of the window's
// samples, or nil when the window is empty.
func (w *window) quantiles(qs ...float64) []time.Duration {
	xs := w.snapshot()
	if len(xs) == 0 {
		return nil
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		k := int(q * float64(len(xs)-1))
		out[i] = xs[k]
	}
	return out
}

// statusClass buckets an HTTP status code for the request counters.
func statusClass(code int) int {
	switch {
	case code < 300:
		return 0 // 2xx
	case code < 500:
		return 1 // 4xx (and the odd 3xx)
	default:
		return 2 // 5xx
	}
}

var statusClassLabel = [3]string{"2xx", "4xx", "5xx"}

// endpointMetrics aggregates one endpoint's traffic.
type endpointMetrics struct {
	name     string
	requests [3]atomic.Uint64 // by statusClass
	latency  histogram
	recent   window
}

// occBuckets are the batch-occupancy histogram bounds (inclusive): a
// batch of n lands in the first bucket with bound >= n.
var occBuckets = [...]int{1, 2, 4, 8, 16, 32, 64}

// batchOpMetrics aggregates one batched operation's dispatches.
type batchOpMetrics struct {
	op        string
	batches   atomic.Uint64
	items     atomic.Uint64 // requests that rode a dispatched batch
	shed      atomic.Uint64 // submissions rejected by a full queue
	occupancy [len(occBuckets) + 1]atomic.Uint64
	queueWait histogram
}

// RequestSample is the flat per-request timing/outcome record. Handlers
// annotate the batching fields; the instrument middleware fills the rest
// and records the sample.
type RequestSample struct {
	Endpoint  string
	Code      int
	Latency   time.Duration
	QueueWait time.Duration
	BatchSize int  // 0 when the request did not ride a batch
	CacheHit  bool // served from the result cache (LRU or joined flight)
}

// Metrics is the server-wide registry. Endpoint and operation sets are
// fixed at construction so the record path is map-lookup + atomics with
// no locking.
type Metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	ops       map[string]*batchOpMetrics
	cacheHits atomic.Uint64 // result-cache hits observed by handlers
}

// NewMetrics builds a registry for the given endpoint paths and batched
// operation names. Samples for unregistered endpoints are dropped.
func NewMetrics(endpoints, ops []string) *Metrics {
	m := &Metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics, len(endpoints)),
		ops:       make(map[string]*batchOpMetrics, len(ops)),
	}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{name: e}
	}
	for _, op := range ops {
		m.ops[op] = &batchOpMetrics{op: op}
	}
	return m
}

// Record folds one request sample into the aggregates.
func (m *Metrics) Record(s *RequestSample) {
	em := m.endpoints[s.Endpoint]
	if em == nil {
		return
	}
	em.requests[statusClass(s.Code)].Add(1)
	em.latency.observe(s.Latency)
	em.recent.record(s.Latency)
	if s.CacheHit {
		m.cacheHits.Add(1)
	}
}

// RecordBatch folds one dispatched batch: its occupancy (counting every
// rider, including ones canceled while queued) and the queue wait of each
// live item.
func (m *Metrics) RecordBatch(op string, size int, live []*BatchItem) {
	om := m.ops[op]
	if om == nil {
		return
	}
	om.batches.Add(1)
	om.items.Add(uint64(size))
	slot := len(occBuckets)
	for i, bound := range occBuckets {
		if size <= bound {
			slot = i
			break
		}
	}
	om.occupancy[slot].Add(1)
	for _, it := range live {
		om.queueWait.observe(it.wait)
	}
}

// RecordShed counts one submission rejected by a full lane queue.
func (m *Metrics) RecordShed(op string) {
	if om := m.ops[op]; om != nil {
		om.shed.Add(1)
	}
}

// BatchTotals reports lifetime dispatch/item/shed counts over every
// operation (for /stats).
func (m *Metrics) BatchTotals() (batches, items, shed uint64) {
	for _, om := range m.ops {
		batches += om.batches.Load()
		items += om.items.Load()
		shed += om.shed.Load()
	}
	return
}

// sortedEndpoints and sortedOps give deterministic render order.
func (m *Metrics) sortedEndpoints() []*endpointMetrics {
	out := make([]*endpointMetrics, 0, len(m.endpoints))
	for _, em := range m.endpoints {
		out = append(out, em)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (m *Metrics) sortedOps() []*batchOpMetrics {
	out := make([]*batchOpMetrics, 0, len(m.ops))
	for _, om := range m.ops {
		out = append(out, om)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].op < out[j].op })
	return out
}

func writeHistogram(b *strings.Builder, name, labels string, h *histogram) {
	cum := uint64(0)
	for i := 0; i < latBucketCount-1; i++ {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, latBucketBound(i), cum)
	}
	cum += h.buckets[latBucketCount-1].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, strings.TrimSuffix(labels, ","), float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, strings.TrimSuffix(labels, ","), h.count.Load())
}

// Render writes the whole registry in Prometheus text exposition format.
// cache, pool, batcher, st and provider contribute their live gauges and
// counters; any of them may be nil.
func (m *Metrics) Render(cache *Cache, pool *Pool, batcher *Batcher, st *store.Store, provider *store.Provider) string {
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP gfc_uptime_seconds Time since server start.\n# TYPE gfc_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "gfc_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(&b, "# HELP gfc_requests_total Requests by endpoint and status class.\n# TYPE gfc_requests_total counter\n")
	for _, em := range m.sortedEndpoints() {
		for cls, label := range statusClassLabel {
			if n := em.requests[cls].Load(); n > 0 {
				fmt.Fprintf(&b, "gfc_requests_total{endpoint=%q,code=%q} %d\n", em.name, label, n)
			}
		}
	}

	fmt.Fprintf(&b, "# HELP gfc_request_duration_seconds Request latency by endpoint.\n# TYPE gfc_request_duration_seconds histogram\n")
	for _, em := range m.sortedEndpoints() {
		if em.latency.count.Load() == 0 {
			continue
		}
		writeHistogram(&b, "gfc_request_duration_seconds", fmt.Sprintf("endpoint=%q,", em.name), &em.latency)
	}

	fmt.Fprintf(&b, "# HELP gfc_request_latency_seconds Latency quantiles over the most recent %d requests per endpoint.\n# TYPE gfc_request_latency_seconds gauge\n", windowSize)
	for _, em := range m.sortedEndpoints() {
		if qs := em.recent.quantiles(0.5, 0.99); qs != nil {
			fmt.Fprintf(&b, "gfc_request_latency_seconds{endpoint=%q,quantile=\"0.5\"} %g\n", em.name, qs[0].Seconds())
			fmt.Fprintf(&b, "gfc_request_latency_seconds{endpoint=%q,quantile=\"0.99\"} %g\n", em.name, qs[1].Seconds())
		}
	}

	fmt.Fprintf(&b, "# HELP gfc_batches_total Dispatched batches by operation.\n# TYPE gfc_batches_total counter\n")
	fmt.Fprintf(&b, "# HELP gfc_batched_requests_total Requests dispatched inside a batch.\n# TYPE gfc_batched_requests_total counter\n")
	fmt.Fprintf(&b, "# HELP gfc_batch_shed_total Submissions shed by a full lane queue.\n# TYPE gfc_batch_shed_total counter\n")
	for _, om := range m.sortedOps() {
		fmt.Fprintf(&b, "gfc_batches_total{op=%q} %d\n", om.op, om.batches.Load())
		fmt.Fprintf(&b, "gfc_batched_requests_total{op=%q} %d\n", om.op, om.items.Load())
		fmt.Fprintf(&b, "gfc_batch_shed_total{op=%q} %d\n", om.op, om.shed.Load())
	}

	fmt.Fprintf(&b, "# HELP gfc_batch_occupancy Batch size at dispatch by operation.\n# TYPE gfc_batch_occupancy histogram\n")
	for _, om := range m.sortedOps() {
		if om.batches.Load() == 0 {
			continue
		}
		cum := uint64(0)
		for i, bound := range occBuckets {
			cum += om.occupancy[i].Load()
			fmt.Fprintf(&b, "gfc_batch_occupancy_bucket{op=%q,le=\"%d\"} %d\n", om.op, bound, cum)
		}
		cum += om.occupancy[len(occBuckets)].Load()
		fmt.Fprintf(&b, "gfc_batch_occupancy_bucket{op=%q,le=\"+Inf\"} %d\n", om.op, cum)
		fmt.Fprintf(&b, "gfc_batch_occupancy_sum{op=%q} %d\n", om.op, om.items.Load())
		fmt.Fprintf(&b, "gfc_batch_occupancy_count{op=%q} %d\n", om.op, om.batches.Load())
	}

	fmt.Fprintf(&b, "# HELP gfc_batch_queue_wait_seconds Time requests waited in a lane queue before dispatch.\n# TYPE gfc_batch_queue_wait_seconds histogram\n")
	for _, om := range m.sortedOps() {
		if om.queueWait.count.Load() == 0 {
			continue
		}
		writeHistogram(&b, "gfc_batch_queue_wait_seconds", fmt.Sprintf("op=%q,", om.op), &om.queueWait)
	}

	if cache != nil {
		hits, misses := cache.Stats()
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(&b, "# HELP gfc_cache_hits_total Result-cache hits (LRU or joined flight).\n# TYPE gfc_cache_hits_total counter\ngfc_cache_hits_total %d\n", hits)
		fmt.Fprintf(&b, "# HELP gfc_cache_misses_total Result-cache misses.\n# TYPE gfc_cache_misses_total counter\ngfc_cache_misses_total %d\n", misses)
		fmt.Fprintf(&b, "# HELP gfc_cache_hit_rate Lifetime result-cache hit rate.\n# TYPE gfc_cache_hit_rate gauge\ngfc_cache_hit_rate %g\n", rate)
		fmt.Fprintf(&b, "# HELP gfc_cache_entries Resident result-cache entries.\n# TYPE gfc_cache_entries gauge\ngfc_cache_entries %d\n", cache.Len())
	}
	if pool != nil {
		fmt.Fprintf(&b, "# HELP gfc_pool_workers Worker-pool slots.\n# TYPE gfc_pool_workers gauge\ngfc_pool_workers %d\n", pool.Workers())
		fmt.Fprintf(&b, "# HELP gfc_pool_in_flight Jobs currently executing.\n# TYPE gfc_pool_in_flight gauge\ngfc_pool_in_flight %d\n", pool.InFlight())
		fmt.Fprintf(&b, "# HELP gfc_pool_completed_total Jobs completed.\n# TYPE gfc_pool_completed_total counter\ngfc_pool_completed_total %d\n", pool.Completed())
		fmt.Fprintf(&b, "# HELP gfc_pool_rejected_total Jobs that never got a slot.\n# TYPE gfc_pool_rejected_total counter\ngfc_pool_rejected_total %d\n", pool.Rejected())
	}
	if batcher != nil {
		fmt.Fprintf(&b, "# HELP gfc_batch_lanes Live batch lanes.\n# TYPE gfc_batch_lanes gauge\ngfc_batch_lanes %d\n", batcher.Lanes())
	}
	if st != nil {
		stats := st.Stats()
		fmt.Fprintf(&b, "# HELP gfc_store_hits_total Artifact loads served from disk or the mapping cache.\n# TYPE gfc_store_hits_total counter\ngfc_store_hits_total %d\n", stats.Hits)
		fmt.Fprintf(&b, "# HELP gfc_store_misses_total Artifact loads that found no artifact.\n# TYPE gfc_store_misses_total counter\ngfc_store_misses_total %d\n", stats.Misses)
		fmt.Fprintf(&b, "# HELP gfc_store_writes_total Artifacts written back after compute.\n# TYPE gfc_store_writes_total counter\ngfc_store_writes_total %d\n", stats.Writes)
		fmt.Fprintf(&b, "# HELP gfc_store_corrupt_total Artifacts that failed validation and fell back to compute.\n# TYPE gfc_store_corrupt_total counter\ngfc_store_corrupt_total %d\n", stats.Corrupt)
		fmt.Fprintf(&b, "# HELP gfc_store_evictions_total Artifacts evicted by the size cap.\n# TYPE gfc_store_evictions_total counter\ngfc_store_evictions_total %d\n", stats.Evictions)
		fmt.Fprintf(&b, "# HELP gfc_store_artifacts Artifacts on disk in the store directory.\n# TYPE gfc_store_artifacts gauge\ngfc_store_artifacts %d\n", stats.Artifacts)
		fmt.Fprintf(&b, "# HELP gfc_store_bytes Artifact bytes on disk in the store directory.\n# TYPE gfc_store_bytes gauge\ngfc_store_bytes %d\n", stats.Bytes)
		fmt.Fprintf(&b, "# HELP gfc_store_pack_artifacts Artifacts in the mounted warm pack.\n# TYPE gfc_store_pack_artifacts gauge\ngfc_store_pack_artifacts %d\n", stats.PackArtifacts)
		fmt.Fprintf(&b, "# HELP gfc_store_pack_bytes Artifact bytes in the mounted warm pack.\n# TYPE gfc_store_pack_bytes gauge\ngfc_store_pack_bytes %d\n", stats.PackBytes)
		fmt.Fprintf(&b, "# HELP gfc_store_resident Artifacts mapped in memory.\n# TYPE gfc_store_resident gauge\ngfc_store_resident %d\n", stats.Resident)
	}
	if provider != nil {
		fmt.Fprintf(&b, "# HELP gfc_store_computed_total Backends built from scratch (store misses and corruption fallbacks).\n# TYPE gfc_store_computed_total counter\ngfc_store_computed_total %d\n", provider.Computed())
	}
	// Column-cache effectiveness of the sweep scratches in this process:
	// constructions served incrementally off a cached class column vs
	// rebuilt from scratch (see core.ColumnCounters).
	colReuse, colRebuild := core.ColumnCounters()
	fmt.Fprintf(&b, "# HELP gfc_sweep_column_reuse_total Cube constructions served incrementally off a cached class column.\n# TYPE gfc_sweep_column_reuse_total counter\ngfc_sweep_column_reuse_total %d\n", colReuse)
	fmt.Fprintf(&b, "# HELP gfc_sweep_column_rebuild_total Cube constructions rebuilt from scratch (cold builder, new factor or dimension jump).\n# TYPE gfc_sweep_column_rebuild_total counter\ngfc_sweep_column_rebuild_total %d\n", colRebuild)
	return b.String()
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.metrics.Render(s.cache, s.pool, s.batcher, s.store, s.provider)))
}
