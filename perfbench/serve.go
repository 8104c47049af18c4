package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/service"
)

// inprocess is the base URL of requests served through handlerTransport.
const inprocess = "http://inprocess"

// request is one generated request and the inputs its answer is checked
// against.
type request struct {
	op  string // rank | unrank | neighbors | count | route | broadcast
	url string // path and query
	f   bitstr.Word
	d   int
	w   bitstr.Word // rank/neighbors word, route source, broadcast root
	w2  bitstr.Word // route destination
	r   int64       // unrank rank
	// order is |V(Q_d(f))| for a broadcast, which must reach every vertex.
	order int64
}

// sample is one completed request. Answers are checked as they arrive,
// so the harness's memory does not grow with the program's throughput;
// only a traced phase keeps the requests.
type sample struct {
	seq int64         // completion order across all clients
	end time.Duration // since the start of the phase, answer checked
	lat time.Duration
	ok  bool     // status 200 and the answer passed the check
	req *request // traced phases only
}

// serveSpec is one serving workload: how many closed-loop clients, how
// they generate requests, how many requests make one pass (the unit every
// per-pass figure is taken over; at least 1000, so a pass's p99 has ten
// samples beyond it), how many warm-up requests a fresh server gets, and
// how an answer is checked.
type serveSpec struct {
	name    string
	clients int
	pass    int
	warmup  int
	// replay is set when every pass sends the same cycle of requests
	// from one client; figures then use each cycle position's fastest
	// time over the run's passes, as the sweeps do per op.
	replay bool
	// gen returns a per-client request generator; it is built during
	// setup and drawn from in the client loop.
	gen   func(seed int64) (func() request, error)
	check func(rq request, body []byte) bool
}

// handlerTransport satisfies http.RoundTripper by invoking the service's
// handler directly, as gfc-loadgen -inprocess does: no TCP. With a tracer
// it records a service.handler span as the child of the caller's request
// span.
type handlerTransport struct {
	h  http.Handler
	tr *tracer
}

type spanKey struct{}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	if t.tr == nil {
		t.h.ServeHTTP(rec, req)
		return rec.Result(), nil
	}
	parent, _ := req.Context().Value(spanKey{}).(int32)
	id := t.tr.begin("service.handler", parent)
	t.h.ServeHTTP(rec, req)
	t.tr.end(id)
	return rec.Result(), nil
}

// loadRun is the merged outcome of one closed-loop load phase.
type loadRun struct {
	samples []sample
	// marks[i] is the time and process CPU when the (i·pass)-th request
	// completed; marks[0] is the start of the phase.
	marks []mark
}

type mark struct {
	at  time.Time
	cpu time.Duration
}

// drive runs clients closed-loop request generators against client until
// the deadline passes or, with a zero deadline, until limit requests
// completed in total. A client sends its next request only after the
// previous reply was read and checked.
func drive(client *http.Client, base string, spec serveSpec, gens []func() request, deadline time.Time, limit int64, tr *tracer) loadRun {
	pass := int64(spec.pass)
	start := time.Now()
	var (
		seq   atomic.Int64
		stop  atomic.Bool
		mu    sync.Mutex
		marks = []mark{{start, cpuTime()}}
		per   = make([][]sample, len(gens))
		wg    sync.WaitGroup
	)
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := gens[c]
			for !stop.Load() {
				rq := next()
				ctx := context.Background()
				root := int32(-1)
				if tr != nil {
					root = tr.begin("client.request", -1)
					ctx = context.WithValue(ctx, spanKey{}, root)
				}
				hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+rq.url, nil)
				if err != nil {
					panic(err) // the generator built a malformed URL: a bug
				}
				t0 := time.Now()
				var s sample
				var body []byte
				code := 0
				if resp, err := client.Do(hreq); err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil {
						code = resp.StatusCode
					}
				}
				s.lat = time.Since(t0)
				if tr != nil {
					tr.end(root)
					s.req = &rq
				}
				s.ok = code == http.StatusOK && spec.check(rq, body)
				s.end = time.Since(start)
				s.seq = seq.Add(1)
				if s.seq%pass == 0 {
					m := mark{time.Now(), cpuTime()}
					mu.Lock()
					marks = append(marks, m)
					mu.Unlock()
				}
				per[c] = append(per[c], s)
				if (deadline.IsZero() && s.seq >= limit) || (!deadline.IsZero() && time.Now().After(deadline)) {
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	var run loadRun
	for _, ss := range per {
		run.samples = append(run.samples, ss...)
	}
	sort.Slice(run.samples, func(i, j int) bool { return run.samples[i].seq < run.samples[j].seq })
	sort.Slice(marks, func(i, j int) bool { return marks[i].at.Before(marks[j].at) })
	run.marks = marks
	return run
}

// failures counts the samples whose status or answer was wrong.
func failures(samples []sample) int64 {
	n := int64(0)
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// newServer is the workload server: the default configuration, driven in
// process.
func newServer() (*service.Server, *http.Client, error) {
	srv, err := service.New(service.Config{Addr: ":0"})
	if err != nil {
		return nil, nil, err
	}
	return srv, &http.Client{Transport: handlerTransport{h: srv.Handler()}}, nil
}

// generators returns one request generator per client, seeded from the
// run seed and the client index.
func generators(spec serveSpec, seed int64) ([]func() request, error) {
	gens := make([]func() request, spec.clients)
	for c := range gens {
		g, err := spec.gen(seed*7919 + int64(c))
		if err != nil {
			return nil, err
		}
		gens[c] = g
	}
	return gens, nil
}

// setupServer brings a fresh server to the first timed request: request
// generators built, service.New, and the first spec.warmup requests of the
// stream, untimed (checked like measured ones). It returns the warm server
// with the generators, which continue the stream.
func setupServer(spec serveSpec, seed int64) (*service.Server, *http.Client, []func() request, []sample, error) {
	gens, err := generators(spec, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srv, client, err := newServer()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	warm := drive(client, inprocess, spec, gens, time.Time{}, int64(spec.warmup), nil)
	return srv, client, gens, warm.samples, nil
}

// runServe measures one serving workload. setup_s is the median over
// setupRounds fresh servers of setupServer; the last one is measured for
// cfg.seconds. Per-pass figures (spec.pass completed requests each) are
// reported as medians over the run's passes.
func runServe(cfg config, spec serveSpec) (outcome, error) {
	o := outcome{metrics: metrics{}}
	var setups []float64
	var srv *service.Server
	var client *http.Client
	var gens []func() request
	for i := 0; i < setupRounds; i++ {
		if srv != nil {
			shutdown(srv)
		}
		t0 := time.Now()
		var warm []sample
		var err error
		srv, client, gens, warm, err = setupServer(spec, cfg.seed)
		if err != nil {
			return o, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.attempted += int64(len(warm))
		o.failed += failures(warm)
	}
	defer shutdown(srv)

	run := drive(client, inprocess, spec, gens, time.Now().Add(cfg.seconds), 0, nil)
	o.attempted += int64(len(run.samples))
	o.failed += failures(run.samples)

	w := passes(run, spec.pass)
	if len(w.wall) < minPasses {
		return o, fmt.Errorf("%s: fewer than %d passes of %d requests completed", spec.name, minPasses, spec.pass)
	}
	passS, p50, p99, cpu := median(w.wall), median(w.p50), median(w.p99), median(w.cpu)
	how := "medians over passes of each pass's wall time, p50, p99 and CPU"
	if spec.replay {
		passS, p50, p99 = fastestPositions(run.samples[:len(w.wall)*spec.pass], spec.pass)
		cpu = quantile(w.cpu, 0)
		how = "from each cycle position's fastest time over the passes (CPU: the fastest pass)"
	}
	o.metrics.set("setup_s", median(setups), "s")
	o.metrics.set("pass_s", passS, "s")
	o.metrics.set("ops_per_s", float64(spec.pass)/passS, "1/s")
	o.metrics.set("lat_p50_ms", p50, "ms")
	o.metrics.set("lat_p99_ms", p99, "ms")
	o.metrics.set("cpu_us_per_op", cpu, "us")
	o.metrics.set("rss_peak_mb", peakRSSMB(), "MB")
	all := make([]float64, len(run.samples))
	for i, s := range run.samples {
		all[i] = ms(s.lat)
	}
	o.note("%s: %d clients, %d requests in %d passes of %d; whole-run latency p50 %.4f, p90 %.4f, p95 %.4f, p98 %.4f, p99 %.4f, p99.9 %.4f, max %.3f ms",
		spec.name, spec.clients, len(run.samples), len(w.wall), spec.pass, quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.95), quantile(all, 0.98), quantile(all, 0.99), quantile(all, 0.999), quantile(all, 1))
	o.note("ops are requests; figures are %s (%d samples per pass)", how, spec.pass)
	return o, nil
}

// fastestPositions reduces the complete passes of a replayed cycle to
// each position's fastest time: the gap from the previous answer to this
// one (which sums to the pass's wall time) and the client-observed
// latency. It returns the summed gaps in seconds and the p50 and p99 of
// the latencies in ms. Other tenants' memory bursts slow whole stretches
// of a run; a position's minimum drops whatever a burst hit.
func fastestPositions(samples []sample, pass int) (passS, p50, p99 float64) {
	gap := make([]time.Duration, pass)
	lat := make([]time.Duration, pass)
	var prev time.Duration
	for i, s := range samples {
		p, g := i%pass, s.end-prev
		prev = s.end
		if i < pass || g < gap[p] {
			gap[p] = g
		}
		if i < pass || s.lat < lat[p] {
			lat[p] = s.lat
		}
	}
	var sum time.Duration
	lats := make([]float64, pass)
	for p := range gap {
		sum += gap[p]
		lats[p] = ms(lat[p])
	}
	return sum.Seconds(), quantile(lats, 0.5), quantile(lats, 0.99)
}

// servePasses are per-pass figures of one load phase.
type servePasses struct {
	wall, p50, p99, cpu []float64
}

func passes(run loadRun, pass int) servePasses {
	var w servePasses
	lat := make([]float64, 0, pass)
	for i := 1; i < len(run.marks); i++ {
		lo, hi := (i-1)*pass, i*pass
		if hi > len(run.samples) {
			break
		}
		lat = lat[:0]
		for _, s := range run.samples[lo:hi] {
			lat = append(lat, ms(s.lat))
		}
		w.wall = append(w.wall, run.marks[i].at.Sub(run.marks[i-1].at).Seconds())
		w.p50 = append(w.p50, quantile(lat, 0.50))
		w.p99 = append(w.p99, quantile(lat, 0.99))
		w.cpu = append(w.cpu, us(run.marks[i].cpu-run.marks[i-1].cpu)/float64(pass))
	}
	return w
}

func shutdown(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the server never listened; this stops the batcher and fabric host
}

// randomWord draws an f-free word of length d by greedy suffix avoidance:
// if an appended bit completes f as a suffix, the opposite bit cannot.
func randomWord(r *rand.Rand, f string, d int) bitstr.Word {
	b := make([]byte, 0, d)
	for len(b) < d {
		b = append(b, byte('0'+r.Intn(2)))
		if len(b) >= len(f) && string(b[len(b)-len(f):]) == f {
			b[len(b)-1] ^= 1
		}
	}
	return bitstr.MustParse(string(b))
}

// decode unmarshals a response body into T.
func decode[T any](body []byte) (T, bool) {
	var v T
	err := json.Unmarshal(body, &v)
	return v, err == nil
}

// --- serve-mixed ---------------------------------------------------------

// The mixed addressing workload targets the order-5,702,887 Fibonacci cube
// Q_32(11) with gfc-loadgen's mixed profile.
var (
	mixedF   = bitstr.MustParse("11")
	mixedD   = 32
	mixedMix = []struct {
		op     string
		weight int
	}{{"rank", 40}, {"unrank", 25}, {"neighbors", 15}, {"count", 15}, {"route", 5}}
)

var serveMixed = serveSpec{
	name:    "serve-mixed",
	clients: 2,
	pass:    1000,
	warmup:  2000,
	gen: func(seed int64) (func() request, error) {
		r := rand.New(rand.NewSource(seed))
		f, d := mixedF.String(), mixedD
		order := core.NewImplicit(d, mixedF).Order()
		path := fmt.Sprintf("/v1/%%s?f=%s&d=%d", f, d)
		return func() request {
			n := r.Intn(100)
			op := mixedMix[len(mixedMix)-1].op
			for _, m := range mixedMix {
				if n < m.weight {
					op = m.op
					break
				}
				n -= m.weight
			}
			rq := request{op: op, f: mixedF, d: d, url: fmt.Sprintf(path, op)}
			switch op {
			case "rank", "neighbors":
				rq.w = randomWord(r, f, d)
				rq.url += "&w=" + rq.w.String()
			case "unrank":
				rq.r = r.Int63n(order)
				rq.url += "&r=" + strconv.FormatInt(rq.r, 10)
			case "route":
				rq.w, rq.w2 = randomWord(r, f, d), randomWord(r, f, d)
				rq.url += "&router=word&src=" + rq.w.String() + "&dst=" + rq.w2.String()
			}
			return rq
		}, nil
	},
	check: checkAddressing,
}

// mixedTruth is the direct-call reference for serve-mixed answers.
var mixedTruth = sync.OnceValues(func() (*core.Implicit, core.BigCounts) {
	return core.NewImplicit(mixedD, mixedF), core.Count(mixedD, mixedF)
})

// checkAddressing checks one serve-mixed answer against direct
// core.Implicit calls and core.Count.
func checkAddressing(rq request, body []byte) bool {
	im, counts := mixedTruth()
	switch rq.op {
	case "rank":
		v, ok := decode[service.RankResponse](body)
		want, member := im.RankWord(rq.w)
		return ok && member && v.Rank == strconv.FormatInt(want, 10) && v.Order == strconv.FormatInt(im.Order(), 10)
	case "unrank":
		v, ok := decode[service.UnrankResponse](body)
		want, member := im.UnrankWord(rq.r)
		return ok && member && v.Word == want.String()
	case "neighbors":
		v, ok := decode[service.NeighborsResponse](body)
		if !ok {
			return false
		}
		var want []service.Neighbor
		im.NeighborsOf(rq.w, func(rank int64, u bitstr.Word) bool {
			want = append(want, service.Neighbor{Rank: strconv.FormatInt(rank, 10), Word: u.String()})
			return true
		})
		if v.Degree != len(want) || len(v.Neighbors) != len(want) {
			return false
		}
		for i := range want {
			if v.Neighbors[i] != want[i] {
				return false
			}
		}
		return true
	case "count":
		v, ok := decode[service.CountResponse](body)
		return ok && v.V == counts.V.String() && v.E == counts.E.String() && v.S == counts.S.String()
	case "route":
		v, ok := decode[service.RouteResponse](body)
		return ok && v.Delivered && v.Hops >= rq.w.HammingDistance(rq.w2)
	}
	return false
}

func runServeMixed(cfg config) (outcome, error) { return runServe(cfg, serveMixed) }

// --- serve-explicit ------------------------------------------------------

// explicitCube is one (f, d) of the serve-explicit population.
type explicitCube struct {
	f        bitstr.Word
	d        int
	isometry bool  // the paper's theory proves Q_d(f) isometric
	order    int64 // |V(Q_d(f))|
}

// explicitPopulation is every class with 3 <= |f| <= 5 at 8 <= d <= 16
// (171 cubes, more than the server's 4 x 32-entry cube LRU), in a fixed
// shuffled order whose first explicitHot cubes are the hot set; it does
// not depend on the seed, so every seed draws from the same working set.
var explicitPopulation = sync.OnceValue(func() []explicitCube {
	pop := explicitCubes(3, 5, 8, 16)
	rand.New(rand.NewSource(171)).Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	return pop
})

// explicitFillers are 60 small cubes (|f| = 6, 8 <= d <= 10; builds take
// microseconds, and a few hundred vertices keep broadcast roots from
// repeating into the result cache) that join the serve-explicit tail.
// They only fill the cube LRU: its shard is picked by a hash with a
// per-process seed, and with the 171 cubes alone 13% of processes draw a
// shard holding 32 cubes or fewer, whose tail then never misses. With 231
// keys that chance is below one in a thousand.
var explicitFillers = sync.OnceValue(func() []explicitCube { return explicitCubes(6, 6, 8, 10) })

// explicitCubes lists every class with minLen <= |f| <= maxLen at
// minD <= d <= maxD.
func explicitCubes(minLen, maxLen, minD, maxD int) []explicitCube {
	var cubes []explicitCube
	for _, cl := range core.Classes(minLen, maxLen) {
		for d := minD; d <= maxD; d++ {
			cubes = append(cubes, explicitCube{
				f: cl.Rep, d: d,
				isometry: core.Classify(cl.Rep, d).Verdict == core.Isometric,
				order:    core.NewImplicit(d, cl.Rep).Order(),
			})
		}
	}
	return cubes
}

// explicitSequenceSeed fixes the serve-explicit cube sequence.
const explicitSequenceSeed = 16

// explicitZipfS is the Zipf exponent of route popularity over the
// routable hot cubes.
const explicitZipfS = 1.1

var serveExplicit = serveSpec{
	name:    "serve-explicit",
	clients: 1,
	pass:    explicitPass,
	warmup:  explicitPass,
	replay:  true,
	gen: func(seed int64) (func() request, error) {
		cycle, err := explicitCycle()
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(seed))
		i := 0
		return func() request {
			c := cycle[i%len(cycle)]
			i++
			f := c.cube.f.String()
			rq := request{op: c.op, f: c.cube.f, d: c.cube.d, w: randomWord(r, f, c.cube.d), order: c.cube.order}
			if c.op == "route" {
				rq.w2 = randomWord(r, f, c.cube.d)
				rq.url = fmt.Sprintf("/v1/route?router=greedy&f=%s&d=%d&src=%s&dst=%s", f, c.cube.d, rq.w, rq.w2)
			} else {
				rq.url = fmt.Sprintf("/v1/broadcast?f=%s&d=%d&root=%s", f, c.cube.d, rq.w)
			}
			return rq
		}, nil
	},
	check: checkExplicit,
}

// explicitPass is the length of the serve-explicit request cycle, and
// explicitHot is how many of the 171 cubes are popular.
const (
	explicitPass = 2000
	explicitHot  = 24
)

// explicitStep is one entry of the serve-explicit cycle.
type explicitStep struct {
	op   string // route | broadcast
	cube explicitCube
}

// explicitCycle is the serve-explicit request sequence: 70% greedy routes
// and 30% broadcasts. A hot set of explicitHot cubes takes all but one
// request per other cube: routes Zipf-skewed over the hot cubes the
// theory proves isometric (where the greedy router always delivers), and
// broadcasts spread evenly over the hot set. Every other cube is the long
// tail, broadcast once per cycle.
//
// The cycle does not depend on the seed and every pass replays it, so
// after the warm-up each pass misses the cube LRU on the same cubes. The
// LRU has 4 shards of 32 and the tail is 147 cubes plus the fillers, so a
// tail cube finds more than 32 other cubes of its shard touched since its
// last visit and has been evicted: it misses every pass, whichever shards
// the process's hash seed puts it in. Every hot cube comes back within a
// few hundred requests and always hits. A miss costs up to ~1000 hits, so
// a miss count that varied between passes or seeds would dominate the
// spread. The seed draws the words.
var explicitCycle = sync.OnceValues(func() ([]explicitStep, error) {
	pop := explicitPopulation()
	hot := pop[:explicitHot]
	tail := append(append([]explicitCube(nil), pop[explicitHot:]...), explicitFillers()...)
	var routable []explicitCube
	for _, c := range hot {
		if c.isometry {
			routable = append(routable, c)
		}
	}
	if len(routable) < 2 {
		return nil, fmt.Errorf("serve-explicit: fewer than 2 provably isometric hot cubes to route on")
	}
	r := rand.New(rand.NewSource(explicitSequenceSeed))
	zRoute := rand.NewZipf(r, explicitZipfS, 1, uint64(len(routable)-1))
	routes := explicitPass * 7 / 10
	cycle := make([]explicitStep, 0, explicitPass)
	for i := 0; i < routes; i++ {
		cycle = append(cycle, explicitStep{"route", routable[zRoute.Uint64()]})
	}
	for _, c := range tail {
		cycle = append(cycle, explicitStep{"broadcast", c})
	}
	for len(cycle) < explicitPass {
		cycle = append(cycle, explicitStep{"broadcast", hot[r.Intn(len(hot))]})
	}
	r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle, nil
})

// checkExplicit checks one serve-explicit answer: a broadcast reaches
// every vertex, a greedy route is delivered in at least Hamming-distance
// hops.
func checkExplicit(rq request, body []byte) bool {
	switch rq.op {
	case "broadcast":
		v, ok := decode[service.BroadcastResponse](body)
		return ok && int64(v.Reached) == rq.order && int64(v.Nodes) == rq.order
	case "route":
		v, ok := decode[service.RouteResponse](body)
		return ok && v.Delivered && v.Hops >= rq.w.HammingDistance(rq.w2)
	}
	return false
}

func runServeExplicit(cfg config) (outcome, error) { return runServe(cfg, serveExplicit) }
