package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

// mustNew builds a Server or fails the test; every config in this
// package's tests is expected to be valid.
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s := mustNew(t, Config{Workers: 4, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// getJSON fetches url and decodes the body into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
}

func TestCountEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	tests := []struct {
		f       string
		d       int
		v, e, s string
	}{
		// |V(Γ_10)| = F_12 = 144 (Fibonacci cube order).
		{"11", 10, "144", "", ""},
		// Q_5(1) keeps only 0^5.
		{"1", 5, "1", "0", "0"},
		{"11", 0, "1", "0", "0"},
	}
	for _, tc := range tests {
		var got CountResponse
		url := fmt.Sprintf("%s/v1/count?f=%s&d=%d", ts.URL, tc.f, tc.d)
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if got.V != tc.v {
			t.Errorf("count(%s, %d).V = %s, want %s", tc.f, tc.d, got.V, tc.v)
		}
		if tc.e != "" && got.E != tc.e {
			t.Errorf("count(%s, %d).E = %s, want %s", tc.f, tc.d, got.E, tc.e)
		}
		if tc.s != "" && got.S != tc.s {
			t.Errorf("count(%s, %d).S = %s, want %s", tc.f, tc.d, got.S, tc.s)
		}
	}

	// Cross-check a larger instance against the library directly.
	var got CountResponse
	getJSON(t, ts.URL+"/v1/count?f=110&d=40", &got)
	want := core.Count(40, bitstr.MustParse("110"))
	if got.V != want.V.String() || got.E != want.E.String() || got.S != want.S.String() {
		t.Errorf("count(110, 40) = %s/%s/%s, want %s/%s/%s",
			got.V, got.E, got.S, want.V, want.E, want.S)
	}
}

func TestCountCacheHit(t *testing.T) {
	ts, _ := newTestServer(t)
	url := ts.URL + "/v1/count?f=11&d=50"
	var first, second CountResponse
	getJSON(t, url, &first)
	getJSON(t, url, &second)
	if first.Cached {
		t.Fatalf("first request reported cached=true")
	}
	if !second.Cached {
		t.Fatalf("second identical request not served from cache")
	}
	if first.V != second.V || first.E != second.E || first.S != second.S {
		t.Fatalf("cached answer differs: %+v vs %+v", first, second)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	tests := []struct {
		f       string
		d       int
		verdict string
	}{
		{"11", 9, "isometric"},
		{"101", 4, "not isometric"},
		{"1100", 9, "not isometric"}, // Theorem 3.3(ii): isometric only up to d = 6
		{"1010", 12, "isometric"},    // Theorem 4.4
	}
	for _, tc := range tests {
		var got ClassifyResponse
		url := fmt.Sprintf("%s/v1/classify?f=%s&d=%d", ts.URL, tc.f, tc.d)
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if got.Verdict != tc.verdict {
			t.Errorf("classify(%s, %d) = %q (%s), want %q", tc.f, tc.d, got.Verdict, got.Reason, tc.verdict)
		}
		if got.Reason == "" {
			t.Errorf("classify(%s, %d): empty reason", tc.f, tc.d)
		}
		if got.Table1 == nil {
			t.Errorf("classify(%s, %d): missing Table 1 row for short factor", tc.f, tc.d)
		}
	}
	var got ClassifyResponse
	getJSON(t, ts.URL+"/v1/classify?f=101&d=4", &got)
	if got.Table1.Representative != "101" || got.Table1.UpTo != 3 {
		t.Errorf("Table1 row = %+v, want representative 101 up to d = 3", got.Table1)
	}
}

func TestIsometricEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var pos IsometricResponse
	getJSON(t, ts.URL+"/v1/isometric?f=11&d=7", &pos)
	if !pos.Isometric {
		t.Fatalf("Γ_7 must be isometric, got %+v", pos)
	}
	var neg IsometricResponse
	getJSON(t, ts.URL+"/v1/isometric?f=101&d=4", &neg)
	if neg.Isometric {
		t.Fatalf("Q_4(101) must not be isometric")
	}
	if neg.U == "" || neg.V == "" {
		t.Fatalf("negative answer must carry a witness pair, got %+v", neg)
	}
}

func TestFDimEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// dim_f(C_6) in Q_d(11): the 6-cycle embeds isometrically in some small
	// Fibonacci cube; the endpoint must find the minimal dimension.
	var got FDimResponse
	url := ts.URL + "/v1/fdim?f=11&graph=cycle&n=6&maxd=8"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if !got.Found {
		t.Fatalf("C_6 should embed by d = 8: %+v", got)
	}
	if got.Dim < 3 {
		t.Fatalf("dim_f(C_6) = %d is impossibly small", got.Dim)
	}
}

func TestRouteEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var word RouteResponse
	getJSON(t, ts.URL+"/v1/route?f=11&d=8&src=00000000&dst=10101010&router=word", &word)
	if !word.Delivered || word.Hops != 4 {
		t.Fatalf("word route = %+v, want delivered in 4 hops", word)
	}
	if len(word.Path) != 5 {
		t.Fatalf("path has %d vertices, want 5", len(word.Path))
	}
	if word.Stretch != 1 {
		t.Fatalf("stretch = %v, want 1 on an isometric cube", word.Stretch)
	}
	for _, router := range []string{"greedy", "oracle", "deroute"} {
		var got RouteResponse
		url := fmt.Sprintf("%s/v1/route?f=11&d=6&src=000000&dst=101010&router=%s", ts.URL, router)
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if !got.Delivered || got.Hops != 3 {
			t.Fatalf("%s route = %+v, want delivered in 3 hops", router, got)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got SimulateResponse
	url := ts.URL + "/v1/simulate?f=11&d=6&pattern=uniform&count=40&seed=7"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if got.Packets != 40 {
		t.Fatalf("packets = %d, want 40", got.Packets)
	}
	if got.Delivered != got.Packets || got.Stuck != 0 || got.Undelivered != 0 {
		t.Fatalf("greedy on isometric Γ_6 must deliver everything: %+v", got)
	}
}

func TestBroadcastEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got BroadcastResponse
	getJSON(t, ts.URL+"/v1/broadcast?f=11&d=5&root=00000", &got)
	// |V(Γ_5)| = F_7 = 13; the BFS tree reaches everyone with n-1 messages.
	if got.Nodes != 13 || got.Reached != 13 || got.Messages != 12 {
		t.Fatalf("broadcast = %+v, want 13 nodes reached with 12 messages", got)
	}
}

func TestHamiltonEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got HamiltonResponse
	url := ts.URL + "/v1/hamilton?f=11&d=4"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if got.Outcome != "found" {
		t.Fatalf("Γ_4 has a Hamiltonian path, got %+v", got)
	}
	if len(got.Order) != 8 { // F_6 = 8 vertices
		t.Fatalf("order has %d vertices, want 8", len(got.Order))
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	urls := []string{
		"/v1/count",                            // missing f
		"/v1/count?f=11",                       // missing d
		"/v1/count?f=2x&d=4",                   // not binary
		"/v1/count?f=11&d=-1",                  // negative d
		"/v1/count?f=11&d=200001",              // over MaxCountDim
		"/v1/isometric?f=11&d=25",              // over MaxBuildDim
		"/v1/route?f=11&d=4&src=0110&dst=0000", // src contains factor
		"/v1/route?f=11&d=4&src=0000&dst=0101&router=bogus",
		"/v1/simulate?f=11&d=4&pattern=bogus",
		"/v1/fdim?f=11&graph=bogus&n=4",
	}
	for _, u := range urls {
		var e ErrorResponse
		if code := getJSON(t, ts.URL+u, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", u, code, e.Error.Message)
		}
		if e.Error.Code != CodeBadRequest {
			t.Errorf("%s: error code %q, want %q", u, e.Error.Code, CodeBadRequest)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: empty error message", u)
		}
	}
}

// Unrouted requests carry the error envelope: unknown paths (including
// removed endpoints) are 404 not_found, known paths under the wrong
// method are 405.
func TestUnroutedRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodGet, "/v1/sweep/isoclasses", http.StatusNotFound, CodeNotFound},
		{http.MethodPost, "/v1/count", http.StatusMethodNotAllowed, CodeBadRequest},
		{http.MethodPost, "/v1/fabric/lease", http.StatusNotFound, CodeNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: body is not an error envelope: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != tc.status || e.Error.Code != tc.code || e.Error.Message == "" {
			t.Errorf("%s %s: status %d code %q message %q, want %d %q",
				tc.method, tc.path, resp.StatusCode, e.Error.Code, e.Error.Message, tc.status, tc.code)
		}
	}
}

// TestConcurrentHammer fires many identical and mixed requests at the
// service from many goroutines; run with -race it demonstrates the cache,
// singleflight and pool are data-race free, and that every client observes
// the same answer.
func TestConcurrentHammer(t *testing.T) {
	ts, s := newTestServer(t)
	const goroutines = 32
	const iters = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	answers := make(map[string]struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var c CountResponse
				if code := getJSON(t, ts.URL+"/v1/count?f=11&d=64", &c); code != http.StatusOK {
					t.Errorf("count: status %d", code)
					return
				}
				mu.Lock()
				answers[c.V+"/"+c.E+"/"+c.S] = struct{}{}
				mu.Unlock()
				// Interleave other endpoints to exercise shard mixing.
				var cl ClassifyResponse
				if code := getJSON(t, fmt.Sprintf("%s/v1/classify?f=1100&d=%d", ts.URL, 7+i%3), &cl); code != http.StatusOK {
					t.Errorf("classify: status %d", code)
					return
				}
				var rr RouteResponse
				if code := getJSON(t, ts.URL+"/v1/route?f=11&d=8&src=00000000&dst=10101010&router=word", &rr); code != http.StatusOK {
					t.Errorf("route: status %d", code)
					return
				}
				if !rr.Delivered || rr.Hops != 4 {
					t.Errorf("route under load = %+v", rr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(answers) != 1 {
		t.Fatalf("concurrent clients observed %d distinct count answers: %v", len(answers), answers)
	}
	// |V(Γ_64)| = F_66.
	var c CountResponse
	getJSON(t, ts.URL+"/v1/count?f=11&d=64", &c)
	if want := core.Count(64, bitstr.MustParse("11")).V.String(); c.V != want {
		t.Fatalf("V = %s, want %s", c.V, want)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheHits == 0 {
		t.Fatalf("hammer produced no cache hits: %+v", st)
	}
	if st.Requests == 0 || st.Workers != 4 {
		t.Fatalf("stats = %+v, want requests > 0 and 4 workers", st)
	}
	if st.CacheHitRate <= 0 || st.CacheHitRate > 1 {
		t.Fatalf("hit rate = %v out of (0, 1]", st.CacheHitRate)
	}
	_ = s
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	getJSON(t, ts.URL+"/v1/count?f=11&d=8", nil)
	getJSON(t, ts.URL+"/v1/count?f=11&d=8", nil)
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Requests != 2 {
		t.Errorf("requests = %d, want 2", st.Requests)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache stats = %d/%d, want 1 hit, 1 miss", st.CacheHits, st.CacheMisses)
	}
	if st.CompletedJobs != 1 {
		t.Errorf("completed jobs = %d, want 1 (second request was a cache hit)", st.CompletedJobs)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", st.UptimeSeconds)
	}
}
