package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

// The classification grid endpoint must reproduce the paper's Table 1:
// maxlen=5, maxd=9 is exactly the E02 experiment.
func TestSweepClassifyEndpointTable1(t *testing.T) {
	ts, _ := newTestServer(t)
	var got SweepClassifyResponse
	url := ts.URL + "/v1/sweep/classify?maxlen=5&maxd=9&method=exact"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if len(got.Cells) != len(core.Table1)*9 {
		t.Fatalf("cells: %d, want %d", len(got.Cells), len(core.Table1)*9)
	}
	for _, cell := range got.Cells {
		row, ok := core.Table1Lookup(bitstr.MustParse(cell.Factor))
		if !ok {
			t.Fatalf("cell factor %s not in Table 1", cell.Factor)
		}
		if want := row.VerdictFor(cell.D) == core.Isometric; cell.Isometric != want {
			t.Errorf("f=%s d=%d: endpoint says isometric=%v, Table 1 says %v",
				cell.Factor, cell.D, cell.Isometric, want)
		}
		if !cell.Isometric && cell.U == "" {
			t.Errorf("f=%s d=%d: negative cell without witness", cell.Factor, cell.D)
		}
	}
	// Spot-check a famous row: 101 fails exactly from d = 4 (Prop. 3.2).
	for _, cell := range got.Cells {
		if cell.Factor == "101" {
			if cell.Isometric != (cell.D <= 3) {
				t.Errorf("f=101 d=%d: isometric=%v", cell.D, cell.Isometric)
			}
		}
	}

	// The identical grid must come from the cache on the second hit.
	var again SweepClassifyResponse
	getJSON(t, url, &again)
	if !again.Cached {
		t.Errorf("second identical sweep not served from cache")
	}
}

// The streaming variant emits the same cells as NDJSON in the same order.
func TestSweepClassifyStream(t *testing.T) {
	ts, _ := newTestServer(t)
	var batch SweepClassifyResponse
	getJSON(t, ts.URL+"/v1/sweep/classify?maxlen=3&maxd=6&method=exact", &batch)

	resp, err := http.Get(ts.URL + "/v1/sweep/classify?maxlen=3&maxd=6&method=exact&stream=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var streamed []SweepCell
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var cell SweepCell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		streamed = append(streamed, cell)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch.Cells) {
		t.Fatalf("streamed %d cells, batch returned %d", len(streamed), len(batch.Cells))
	}
	for i := range streamed {
		if streamed[i] != batch.Cells[i] {
			t.Errorf("cell %d: streamed %+v vs batch %+v", i, streamed[i], batch.Cells[i])
		}
	}
}

// The survey endpoint must reproduce the Table 1 first-failure structure
// for length <= 5: exactly 11 of the 22 classes are good for every d, and
// the paper gives each class's failure dimension.
func TestSweepSurveyEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got SweepSurveyResponse
	url := ts.URL + "/v1/sweep/survey?maxlen=5&maxd=9&method=exact"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if len(got.Rows) != len(core.Table1) {
		t.Fatalf("rows: %d, want %d", len(got.Rows), len(core.Table1))
	}
	for _, row := range got.Rows {
		t1, ok := core.Table1Lookup(bitstr.MustParse(row.Factor))
		if !ok {
			t.Fatalf("row factor %s not in Table 1", row.Factor)
		}
		wantFail := 0
		if t1.UpTo != core.AllD && t1.UpTo < 9 {
			wantFail = t1.UpTo + 1
		}
		if row.FirstFail != wantFail {
			t.Errorf("f=%s: first fail %d, want %d (%s)", row.Factor, row.FirstFail, wantFail, t1.Citation)
		}
	}
	good := 0
	for _, r := range core.Table1 {
		if r.UpTo == core.AllD || r.UpTo >= 9 {
			good++
		}
	}
	if got.Good != good {
		t.Errorf("good = %d, want %d", got.Good, good)
	}
}

// Surveys with different mind values must not share a cache entry, and
// the scan start is honored: a class that first fails at d=4 reports its
// first failure >= mind when the scan starts above 4.
func TestSweepSurveyMindCacheKey(t *testing.T) {
	ts, _ := newTestServer(t)
	var low, high SweepSurveyResponse
	getJSON(t, ts.URL+"/v1/sweep/survey?minlen=3&maxlen=3&maxd=8&method=exact", &low)
	getJSON(t, ts.URL+"/v1/sweep/survey?minlen=3&maxlen=3&mind=6&maxd=8&method=exact", &high)
	if high.Cached {
		t.Fatalf("mind=6 survey served from the mind=1 cache entry")
	}
	firstFail := func(r SweepSurveyResponse, factor string) int {
		for _, row := range r.Rows {
			if row.Factor == factor {
				return row.FirstFail
			}
		}
		t.Fatalf("factor %s missing", factor)
		return 0
	}
	// 010 (the class of 101) first fails at d = 4 (Proposition 3.2).
	if got := firstFail(low, "010"); got != 4 {
		t.Errorf("default scan: first fail %d, want 4", got)
	}
	if got := firstFail(high, "010"); got != 6 {
		t.Errorf("mind=6 scan: first fail %d, want 6", got)
	}
}

// Counting rows must match the serial DP (Fibonacci numbers for f = 11).
func TestSweepCountEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got SweepCountResponse
	url := ts.URL + "/v1/sweep/count?maxlen=2&maxd=10"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	// Classes of length <= 2: "1" and {"11", "10"} -> 3 canonical classes.
	if len(got.Rows) != len(core.Classes(1, 2)) {
		t.Fatalf("rows: %d, want %d", len(got.Rows), len(core.Classes(1, 2)))
	}
	for _, row := range got.Rows {
		if len(row.V) != 11 {
			t.Fatalf("f=%s: %d entries, want 11", row.Factor, len(row.V))
		}
		if row.Factor == "11" && row.V[10] != "144" {
			t.Errorf("|V(Γ_10)| = %s, want 144", row.V[10])
		}
	}
}

// The f-dimension grid endpoint sweeps factors for one guest.
func TestSweepFDimEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got SweepFDimResponse
	url := ts.URL + "/v1/sweep/fdim?graph=path&n=4&maxlen=2&maxd=8"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if got.Guest != "path(4)" {
		t.Errorf("guest = %q", got.Guest)
	}
	for _, row := range got.Rows {
		if row.Factor == "11" && (!row.Found || row.Dim < 3) {
			t.Errorf("dim_11(P_4) = %+v, want found at d >= 3", row)
		}
	}
}

// The Wiener endpoint must report exact-vs-Hamming agreement following
// the isometry classification: f=101 matches exactly up to d=3.
func TestSweepWienerEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var got SweepWienerResponse
	url := ts.URL + "/v1/sweep/wiener?minlen=3&maxlen=3&maxd=6"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if want := len(core.Classes(3, 3)) * 6; len(got.Cells) != want {
		t.Fatalf("cells: %d, want %d", len(got.Cells), want)
	}
	seen010 := false
	for _, cell := range got.Cells {
		if cell.Wiener == "" || cell.WienerHamming == "" {
			t.Fatalf("f=%s d=%d: empty Wiener strings", cell.Factor, cell.D)
		}
		if cell.Match != (cell.Connected && cell.Wiener == cell.WienerHamming) {
			t.Errorf("f=%s d=%d: match flag inconsistent", cell.Factor, cell.D)
		}
		// 010 is the canonical representative of the {010, 101} class,
		// which stops being isometric (hence matching) at d = 4.
		if cell.Factor == "010" {
			seen010 = true
			if cell.Match != (cell.D <= 3) {
				t.Errorf("f=010 d=%d: match=%v", cell.D, cell.Match)
			}
		}
	}
	if !seen010 {
		t.Fatal("factor 010 missing from grid")
	}
	var again SweepWienerResponse
	getJSON(t, url, &again)
	if !again.Cached {
		t.Error("second identical wiener sweep not served from cache")
	}
}

func TestSweepBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	urls := []string{
		"/v1/sweep/classify?maxlen=0",
		"/v1/sweep/classify?maxlen=99",
		"/v1/sweep/classify?maxd=99",
		"/v1/sweep/classify?method=bogus",
		"/v1/sweep/classify?minlen=5&maxlen=3",
		"/v1/sweep/classify?workers=1000",
		"/v1/sweep/survey?method=bogus",
		"/v1/sweep/count?maxd=100000",
		"/v1/sweep/fdim?maxlen=3", // missing guest graph
	}
	for _, u := range urls {
		var e ErrorResponse
		if code := getJSON(t, ts.URL+u, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", u, code, e.Error.Message)
		}
	}
}

// Concurrent identical sweeps are singleflighted: every client sees the
// same payload and the grid is computed once.
func TestSweepSingleflight(t *testing.T) {
	ts, s := newTestServer(t)
	const clients = 8
	url := ts.URL + "/v1/sweep/classify?maxlen=4&maxd=8&method=exact"
	type res struct {
		cells int
		err   error
	}
	ch := make(chan res, clients)
	for i := 0; i < clients; i++ {
		go func() {
			var got SweepClassifyResponse
			code := getJSON(t, url, &got)
			if code != http.StatusOK {
				ch <- res{err: fmt.Errorf("status %d", code)}
				return
			}
			ch <- res{cells: len(got.Cells)}
		}()
	}
	want := len(core.Classes(1, 4)) * 8
	for i := 0; i < clients; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.cells != want {
			t.Fatalf("client saw %d cells, want %d", r.cells, want)
		}
	}
	if completed := s.pool.Completed(); completed > 1 {
		t.Errorf("%d pool jobs for %d identical sweeps, want 1 (singleflight)", completed, clients)
	}
}

// A mid-stream failure must end the NDJSON body with a terminal error
// record carrying the same stable code the v1 envelope would have used —
// here a job deadline far too short for the grid, so the stream dies with
// code "timeout". Every preceding line is still a valid cell.
func TestSweepClassifyStreamTerminalErrorRecord(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/sweep/classify?maxlen=8&maxd=14&method=exact&stream=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (headers are out before the failure)", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream: not even a terminal error record")
	}
	var terminal ErrorResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &terminal); err != nil || terminal.Error.Code == "" {
		t.Fatalf("last line is not a terminal error record: %q (err %v)", lines[len(lines)-1], err)
	}
	if terminal.Error.Code != CodeTimeout {
		t.Errorf("terminal record code %q, want %q", terminal.Error.Code, CodeTimeout)
	}
	for _, line := range lines[:len(lines)-1] {
		var cell SweepCell
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Errorf("non-terminal line is not a cell: %q", line)
		}
	}
}
