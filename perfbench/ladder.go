package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/service"
	"gfcube/internal/store"
)

// tracePhase is how long each traced serving phase runs.
const tracePhase = 2 * time.Second

// runLadder is the traced run: it replays every workload through the same
// public calls with spans recorded at each layer boundary by this
// benchmark's code, runs the layer rungs that no workload isolates, and
// reports every per-layer metric. The workload argument only names the
// span dump.
func runLadder(cfg config, workload string) (outcome, error) {
	o := outcome{metrics: metrics{}}
	tr := newTracer()
	steps := []func(*outcome, *tracer, config) error{ladderSweeps, ladderServeMixed, ladderServeExplicit, ladderConstruction, ladderStore}
	for _, step := range steps {
		if err := step(&o, tr, cfg); err != nil {
			return o, err
		}
	}
	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return o, err
	}
	o.note("spans written to %s", path)
	return o, nil
}

// ladderSweeps alternates untraced and traced passes of both sweeps. The
// traced passes must reproduce the golden tables; their spans give the
// per-layer split, and the fastest traced vs the fastest untraced pass
// gives the overhead.
func ladderSweeps(o *outcome, tr *tracer, cfg config) error {
	const pairs = 2
	for _, k := range []sweepKind{censusKind, surveyKind} {
		want, err := golden(k.name)
		if err != nil {
			return err
		}
		var plain, traced []float64
		var lt layerTimes
		var st passStats
		var reuse, rebuild uint64
		for i := 0; i < pairs; i++ {
			r0, b0 := core.ColumnCounters()
			t0 := time.Now()
			got, err := k.pass(context.Background(), nil)
			plain = append(plain, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			r1, b1 := core.ColumnCounters()
			reuse, rebuild = r1-r0, b1-b0
			o.attempted += int64(len(want))
			o.failed += mismatches(got, want)

			run := tr.newRun()
			t0 = time.Now()
			got, st, err = tracedPass(tr, k)
			traced = append(traced, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			o.attempted += int64(len(want))
			o.failed += mismatches(got, want)
			lt = tr.layers(run)
		}
		passMs := lt.ms("sweep.pass")
		named := lt.ms("core.extend") + lt.ms("core.isometric") + lt.ms("core.screen")
		m, sfx := o.metrics, "."+k.name
		m.set("core.extend_ms"+sfx, lt.ms("core.extend"), "ms")
		m.set("core.column_reuse"+sfx, float64(reuse), "count")
		m.set("core.column_rebuild"+sfx, float64(rebuild), "count")
		m.set("sweep.self_ms"+sfx, ms(lt["sweep.pass"].self), "ms")
		m.set("trace.attributed_pct"+sfx, 100*named/passMs, "%")
		m.set("trace.overhead_pct"+sfx, 100*(quantile(traced, 0)/quantile(plain, 0)-1), "%")
		if k.name == censusKind.name {
			cells := lt["sweep.cell"]
			m.set("core.isometric_ms", lt.ms("core.isometric"), "ms")
			m.set("core.cells_isometric", float64(st.cellsIsometric), "count")
			m.set("graph.msbfs_batches", float64(st.msbfsBatches), "count")
			m.set("graph.msbfs_ns_per_src_edge", float64(st.isometricTime.Nanoseconds())/st.srcEdges, "ns")
			m.set("sweep.cells", float64(cells.count), "count")
			m.set("sweep.cell_ms_p50", quantile(cells.durs, 0.5), "ms")
			m.set("sweep.cell_ms_p90", quantile(cells.durs, 0.9), "ms")
		} else {
			m.set("core.screen_ms", lt.ms("core.screen"), "ms")
		}
		o.notes = append(o.notes, lt.table(fmt.Sprintf("%s traced pass (%.1f%% in named layer spans):", k.name, 100*named/passMs))...)
	}
	return nil
}

// promSum adds up every sample of a Prometheus metric family line prefix
// (e.g. "gfc_batch_queue_wait_seconds_sum{") across its label sets.
func promSum(text, prefix string) float64 {
	sum := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// scrape fetches /metrics and /stats from the in-process server.
func scrape(client *http.Client) (string, service.StatsResponse, error) {
	var stats service.StatsResponse
	get := func(path string) ([]byte, error) {
		resp, err := client.Get(inprocess + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
			return nil, err
		}
		return []byte(b.String()), nil
	}
	prom, err := get("/metrics")
	if err != nil {
		return "", stats, err
	}
	body, err := get("/stats")
	if err != nil {
		return "", stats, err
	}
	stats, ok := decode[service.StatsResponse](body)
	if !ok {
		return "", stats, errors.New("undecodable /stats")
	}
	return string(prom), stats, nil
}

// servePhases is what tracedServe measured on one serving workload.
type servePhases struct {
	srv            *service.Server
	plain, traced  loadRun
	prom0, prom1   string // /metrics around the traced phase
	stats0, stats1 service.StatsResponse
}

// tracedServe replays one serving workload on a fresh warm server: an
// untraced in-process phase (allocations per op), then a traced phase
// whose spans wrap Handler().ServeHTTP, bracketed by /metrics and /stats
// scrapes. The caller shuts the returned server down.
func tracedServe(o *outcome, tr *tracer, cfg config, spec serveSpec) (servePhases, error) {
	var ph servePhases
	srv, client, gens, warm, err := setupServer(spec, cfg.seed)
	if err != nil {
		return ph, err
	}
	ph.srv = srv
	o.attempted += int64(len(warm))
	o.failed += failures(warm)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph.plain = drive(client, inprocess, spec, gens, time.Now().Add(tracePhase), 0, nil)
	runtime.ReadMemStats(&m1)
	o.attempted += int64(len(ph.plain.samples))
	o.failed += failures(ph.plain.samples)
	o.metrics.set("service.alloc_kb_per_op."+spec.name, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(ph.plain.samples)), "KB")

	if ph.prom0, ph.stats0, err = scrape(client); err != nil {
		return ph, err
	}
	run := tr.newRun()
	tclient := &http.Client{Transport: handlerTransport{h: srv.Handler(), tr: tr}}
	ph.traced = drive(tclient, inprocess, spec, gens, time.Now().Add(tracePhase), 0, tr)
	if ph.prom1, ph.stats1, err = scrape(client); err != nil {
		return ph, err
	}
	o.attempted += int64(len(ph.traced.samples))
	o.failed += failures(ph.traced.samples)
	lt := tr.layers(run)
	h := lt["service.handler"]
	o.metrics.set("service.handler_us_p50."+spec.name, 1000*quantile(h.durs, 0.5), "us")
	o.metrics.set("service.handler_us_p99."+spec.name, 1000*quantile(h.durs, 0.99), "us")
	o.notes = append(o.notes, lt.table(fmt.Sprintf("%s traced phase (%d requests):", spec.name, len(ph.traced.samples)))...)
	return ph, nil
}

// promDelta is after-minus-before of a summed metric family.
func promDelta(before, after, prefix string) float64 {
	return promSum(after, prefix) - promSum(before, prefix)
}

// ladderServeMixed is the addressing rung: handler spans, the implicit
// kernel under the same requests, the batcher's queue wait and occupancy,
// and the loopback rung (the same stream over a real TCP listener).
func ladderServeMixed(o *outcome, tr *tracer, cfg config) error {
	spec := serveMixed
	ph, err := tracedServe(o, tr, cfg, spec)
	if ph.srv != nil {
		defer shutdown(ph.srv)
	}
	if err != nil {
		return err
	}
	before, after := ph.prom0, ph.prom1
	waitN := promDelta(before, after, "gfc_batch_queue_wait_seconds_count{")
	occN := promDelta(before, after, "gfc_batch_occupancy_count{")
	if waitN == 0 || occN == 0 {
		return fmt.Errorf("serve-mixed: no batches in the traced phase")
	}
	o.metrics.set("service.batch_wait_ms_mean", 1000*promDelta(before, after, "gfc_batch_queue_wait_seconds_sum{")/waitN, "ms")
	o.metrics.set("service.batch_occupancy_mean", promDelta(before, after, "gfc_batch_occupancy_sum{")/occN, "count")
	o.metrics.set("service.batch_shed", promDelta(before, after, "gfc_batch_shed_total{"), "count")

	// Kernel: the same requests as direct core.Implicit calls.
	im, _ := mixedTruth()
	var kern []float64
	for _, s := range ph.traced.samples {
		rq := *s.req
		t0 := time.Now()
		switch rq.op {
		case "rank":
			im.RankWord(rq.w)
		case "unrank":
			im.UnrankWord(rq.r)
		case "neighbors":
			im.NeighborsOf(rq.w, func(int64, bitstr.Word) bool { return true })
		default:
			continue
		}
		kern = append(kern, us(time.Since(t0)))
	}
	o.metrics.set("service.kernel_us_p50", quantile(kern, 0.5), "us")

	// Loopback rung: the same stream over a real listener with at most
	// GOMAXPROCS connections, against the untraced in-process phase.
	gens, err := generators(spec, cfg.seed+2)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: ph.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	conns := min(spec.clients, runtime.GOMAXPROCS(0))
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	loop := drive(&http.Client{Transport: transport}, "http://"+ln.Addr().String(), spec, gens, time.Now().Add(tracePhase), 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	transport.CloseIdleConnections()
	o.attempted += int64(len(loop.samples))
	o.failed += failures(loop.samples)
	o.metrics.set("service.loopback_extra_us", 1000*(p50ms(loop)-p50ms(ph.plain)), "us")
	o.note("loopback: %d requests over %d connections, p50 %.4f ms vs in-process %.4f ms", len(loop.samples), conns, p50ms(loop), p50ms(ph.plain))
	return nil
}

func p50ms(run loadRun) float64 {
	lat := make([]float64, len(run.samples))
	for i, s := range run.samples {
		lat[i] = ms(s.lat)
	}
	return quantile(lat, 0.5)
}

// ladderServeExplicit is the explicit-cube rung: handler spans, the
// result cache, the cube LRU and the worker pool under serve-explicit.
func ladderServeExplicit(o *outcome, tr *tracer, cfg config) error {
	ph, err := tracedServe(o, tr, cfg, serveExplicit)
	if ph.srv != nil {
		defer shutdown(ph.srv)
	}
	if err != nil {
		return err
	}
	st0, st1 := ph.stats0, ph.stats1
	hits, misses := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	if hits+misses == 0 {
		return fmt.Errorf("serve-explicit: no result-cache lookups in the traced phase")
	}
	o.metrics.set("service.result_cache_hit_ratio", hits/(hits+misses), "ratio")
	o.metrics.set("service.cube_cache_len", float64(st1.CubeCacheLen), "count")
	o.metrics.set("service.pool_avg_job_ms", st1.AvgJobLatencyMs, "ms")
	o.metrics.set("service.pool_rejected", float64(st1.RejectedJobs-st0.RejectedJobs), "count")
	return nil
}

// ladderConstruction prices the construction layers on the serve-explicit
// population: from-scratch core.New, DFA rank-table builds, vertex
// enumeration, and Cube.Rank probes on the survey cubes.
func ladderConstruction(o *outcome, tr *tracer, cfg config) error {
	pop := explicitPopulation()
	run := tr.newRun()
	for _, c := range pop {
		id := tr.begin("core.new", -1)
		cube := core.New(c.d, c.f)
		tr.end(id)
		if int64(cube.N()) != core.NewImplicit(c.d, c.f).Order() {
			o.failed++
		}
		o.attempted++
	}
	o.metrics.set("core.build_ms", tr.layers(run).ms("core.new"), "ms")

	// Rank tables: the serve-mixed (f, d) plus the serve-explicit set.
	set := append([]explicitCube{{f: mixedF, d: mixedD}}, pop...)
	var perBuild []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for _, x := range set {
			automaton.NewRanker(x.f, x.d)
		}
		perBuild = append(perBuild, us(time.Since(t0))/float64(len(set)))
	}
	o.metrics.set("automaton.ranker_build_us", median(perBuild), "us")

	// Enumeration, into one reused buffer.
	var buf []uint64
	var perVertex []float64
	for round := 0; round < 3; round++ {
		n := 0
		t0 := time.Now()
		for _, c := range pop {
			buf = automaton.New(c.f).AppendVertices(buf[:0], c.d)
			n += len(buf)
		}
		perVertex = append(perVertex, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	o.metrics.set("automaton.enum_ns_per_vertex", median(perVertex), "ns")

	// Rank probes: a seeded sample of member words of the 20 survey cubes
	// at d = surveySpec.MaxD, each of which must rank to its own index,
	// mixed with random words (mostly non-members).
	r := rand.New(rand.NewSource(cfg.seed))
	type probe struct {
		c    *core.Cube
		w    bitstr.Word
		rank int // -1 for a random word
	}
	var probes []probe
	for _, cl := range core.Classes(surveySpec.MinLen, surveySpec.MaxLen) {
		c := core.New(surveySpec.MaxD, cl.Rep)
		for i := 0; i < 500; i++ {
			k := r.Intn(c.N())
			probes = append(probes, probe{c, c.Word(k), k})
			probes = append(probes, probe{c, bitstr.New(r.Uint64()&(1<<surveySpec.MaxD-1), surveySpec.MaxD), -1})
		}
	}
	var perRank []float64
	ranks := make([]int, len(probes))
	for round := 0; round < 20; round++ {
		t0 := time.Now()
		for i, p := range probes {
			ranks[i], _ = p.c.Rank(p.w)
		}
		perRank = append(perRank, float64(time.Since(t0).Nanoseconds())/float64(len(probes)))
	}
	for i, p := range probes {
		if p.rank >= 0 {
			o.attempted++
			if ranks[i] != p.rank {
				o.failed++
			}
		}
	}
	o.metrics.set("automaton.rank_ns", median(perRank), "ns")
	return nil
}

// ladderStore is the store-vs-build rung: the same cubes (3 <= |f| <= 5,
// 12 <= d <= 16) built from scratch and loaded, fully verified, from a
// throwaway artifact store inside the build directory.
func ladderStore(o *outcome, tr *tracer, cfg config) error {
	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	set := explicitCubes(3, 5, 12, 16)
	ctx := context.Background()

	// Populate: compute and write through.
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	p := store.NewProvider(st)
	for _, x := range set {
		if _, _, err := p.Cube(ctx, x.d, x.f); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}

	run := tr.newRun()
	built := make([]*core.Cube, len(set))
	for i, x := range set {
		id := tr.begin("core.new", -1)
		built[i] = core.New(x.d, x.f)
		tr.end(id)
	}
	// A fresh store has no resident mappings: every load maps, checks the
	// artifact checksum and re-verifies the cube.
	st, err = store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	p = store.NewProvider(st)
	for i, x := range set {
		id := tr.begin("store.load", -1)
		c, src, err := p.Cube(ctx, x.d, x.f)
		tr.end(id)
		if err != nil {
			return err
		}
		o.attempted++
		if src != core.SourceStore || c.N() != built[i].N() || c.M() != built[i].M() {
			o.failed++
		}
	}
	lt := tr.layers(run)
	o.metrics.set("store.load_ms", lt.ms("store.load"), "ms")
	o.metrics.set("store.build_ms", lt.ms("core.new"), "ms")
	return nil
}
