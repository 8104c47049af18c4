package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestLatBucketIndexMonotonic(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{10 * time.Minute, latBucketCount - 1},
	}
	for _, tc := range cases {
		if got := latBucketIndex(tc.d); got != tc.want {
			t.Errorf("latBucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	prev := -1
	for d := time.Microsecond; d < time.Minute; d *= 2 {
		i := latBucketIndex(d)
		if i < prev {
			t.Fatalf("bucket index not monotonic at %v", d)
		}
		prev = i
	}
	if latBucketBound(0) != 1e-6 {
		t.Errorf("bucket 0 bound = %g, want 1e-6", latBucketBound(0))
	}
}

func TestWindowQuantiles(t *testing.T) {
	var w window
	if qs := w.quantiles(0.5); qs != nil {
		t.Fatalf("empty window quantiles = %v, want nil", qs)
	}
	for i := 1; i <= 100; i++ {
		w.record(time.Duration(i) * time.Millisecond)
	}
	qs := w.quantiles(0.0, 0.5, 0.99, 1.0)
	if qs[0] != time.Millisecond {
		t.Errorf("min = %v, want 1ms", qs[0])
	}
	if qs[1] < 45*time.Millisecond || qs[1] > 55*time.Millisecond {
		t.Errorf("p50 = %v, want ~50ms", qs[1])
	}
	if qs[3] != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", qs[3])
	}
	// Overflow the ring: only the most recent windowSize samples remain.
	for i := 0; i < windowSize; i++ {
		w.record(time.Second)
	}
	qs = w.quantiles(0.0)
	if qs[0] != time.Second {
		t.Errorf("after overwrite min = %v, want 1s", qs[0])
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]int{200: 0, 204: 0, 400: 1, 404: 1, 499: 1, 500: 2, 503: 2, 504: 2} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %d, want %d", code, got, want)
		}
	}
}

func TestMetricsRecordAndRender(t *testing.T) {
	m := NewMetrics([]string{"/v1/rank"}, []string{"rank"})
	m.Record(&RequestSample{Endpoint: "/v1/rank", Code: 200, Latency: 3 * time.Millisecond, CacheHit: true})
	m.Record(&RequestSample{Endpoint: "/v1/rank", Code: 400, Latency: time.Millisecond})
	m.Record(&RequestSample{Endpoint: "/v1/rank", Code: 503, Latency: time.Millisecond})
	m.Record(&RequestSample{Endpoint: "/nope", Code: 200, Latency: time.Millisecond}) // dropped

	items := []*BatchItem{{wait: 100 * time.Microsecond}, {wait: 200 * time.Microsecond}}
	m.RecordBatch("rank", 3, items) // one rider canceled before dispatch
	m.RecordBatch("nope", 3, items) // dropped
	m.RecordShed("rank")
	m.RecordShed("nope") // dropped

	batches, n, shed := m.BatchTotals()
	if batches != 1 || n != 3 || shed != 1 {
		t.Fatalf("BatchTotals = (%d, %d, %d), want (1, 3, 1)", batches, n, shed)
	}

	out := m.Render(nil, nil, nil, nil, nil)
	for _, want := range []string{
		`gfc_requests_total{endpoint="/v1/rank",code="2xx"} 1`,
		`gfc_requests_total{endpoint="/v1/rank",code="4xx"} 1`,
		`gfc_requests_total{endpoint="/v1/rank",code="5xx"} 1`,
		`gfc_request_duration_seconds_count{endpoint="/v1/rank"} 3`,
		`gfc_request_latency_seconds{endpoint="/v1/rank",quantile="0.5"}`,
		`gfc_request_latency_seconds{endpoint="/v1/rank",quantile="0.99"}`,
		`gfc_batches_total{op="rank"} 1`,
		`gfc_batched_requests_total{op="rank"} 3`,
		`gfc_batch_shed_total{op="rank"} 1`,
		`gfc_batch_occupancy_bucket{op="rank",le="4"} 1`,
		`gfc_batch_occupancy_bucket{op="rank",le="+Inf"} 1`,
		`gfc_batch_queue_wait_seconds_count{op="rank"} 2`,
		"gfc_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
}

func TestMetricsOccupancyBuckets(t *testing.T) {
	m := NewMetrics(nil, []string{"op"})
	for _, size := range []int{1, 2, 3, 8, 33, 1000} {
		m.RecordBatch("op", size, nil)
	}
	om := m.ops["op"]
	wantCounts := map[int]uint64{0: 1, 1: 1, 2: 1, 3: 1, 6: 1, len(occBuckets): 1}
	for slot, want := range wantCounts {
		if got := om.occupancy[slot].Load(); got != want {
			t.Errorf("occupancy slot %d = %d, want %d", slot, got, want)
		}
	}
}

func TestMetricsEndpointServesPrometheusText(t *testing.T) {
	ts, _ := newTestServer(t)
	// Drive a little traffic so histograms render.
	var cr CountResponse
	if code := getJSON(t, ts.URL+"/v1/count?f=11&d=10", &cr); code != http.StatusOK {
		t.Fatalf("count status %d", code)
	}
	getJSON(t, ts.URL+"/v1/count?f=11&d=10", &cr) // cache hit
	getJSON(t, ts.URL+"/v1/rank?f=zz&d=4", nil)   // 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`gfc_requests_total{endpoint="/v1/count",code="2xx"} 2`,
		`gfc_requests_total{endpoint="/v1/rank",code="4xx"} 1`,
		`gfc_request_duration_seconds_bucket{endpoint="/v1/count"`,
		"gfc_cache_hits_total",
		"gfc_cache_hit_rate",
		"gfc_pool_workers",
		"gfc_batch_lanes",
		"# TYPE gfc_sweep_column_reuse_total counter",
		"# TYPE gfc_sweep_column_rebuild_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStatusWriterForwardsFlush(t *testing.T) {
	rec := &flushRecorder{}
	sw := &statusWriter{ResponseWriter: rec}
	sw.WriteHeader(http.StatusTeapot)
	sw.WriteHeader(http.StatusOK) // first code wins
	if sw.code != http.StatusTeapot {
		t.Errorf("code = %d, want 418", sw.code)
	}
	sw.Flush()
	if !rec.flushed {
		t.Error("Flush not forwarded to the underlying writer")
	}
}

type flushRecorder struct {
	header  http.Header
	flushed bool
}

func (f *flushRecorder) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *flushRecorder) Write(b []byte) (int, error) { return len(b), nil }
func (f *flushRecorder) WriteHeader(int)             {}
func (f *flushRecorder) Flush()                      { f.flushed = true }
