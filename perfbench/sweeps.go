package main

import (
	"context"
	"embed"
	"fmt"
	"sort"
	"strings"
	"time"

	"gfcube/internal/core"
	"gfcube/internal/sweep"
)

// The two sweep workloads. Their grids are fixed by the paper's census, so
// the seed does not change them: every run does the same work.
var (
	// censusSpec is the Table 1 classification census: every class with
	// 1 <= |f| <= 5 at 1 <= d <= 13, decided exactly (286 cells).
	censusSpec = sweep.GridSpec{MinLen: 1, MaxLen: 5, MinD: 1, MaxD: 13, Method: core.MethodExact}
	// surveySpec is the E13 length-6 first-failure survey on the
	// critical-pair screen (20 classes, d <= 12).
	surveySpec = sweep.GridSpec{MinLen: 6, MaxLen: 6, MinD: 1, MaxD: 12, Method: core.MethodScreen}
)

// setupRounds is how many times a run sets up from fresh state; setup_s
// is their median.
const setupRounds = 5

// minPasses is the fewest measured passes a run reduces, so per-op minima
// and medians have something to work on: a sweep runs at least this many
// even past --seconds, and a serving run that completes fewer fails.
const minPasses = 5

// sweepOpts is the single-worker engine configuration of both sweeps: on a
// shared two-vCPU machine a second worker only measures the scheduler.
func sweepOpts(progress func(done, total int)) sweep.Options {
	return sweep.Options{Workers: 1, Progress: progress}
}

//go:embed golden/*.txt
var goldenFS embed.FS

// golden returns the expected output lines of a sweep workload.
func golden(name string) ([]string, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".txt")
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"), nil
}

// cellLine renders one census cell as its golden-table line: class
// representative, d, verdict, and the witness of a negative verdict.
func cellLine(c core.Cell) string {
	s := fmt.Sprintf("%s %d %t", c.Rep, c.D, c.Isometric)
	if w := c.Witness; w != nil {
		s += fmt.Sprintf(" %s %s %d %d", w.U, w.V, w.CubeDist, w.HammingDist)
	}
	return s
}

// surveyLine renders one survey row as its golden-table line.
func surveyLine(r sweep.SurveyRow) string {
	return fmt.Sprintf("%s %d %s", r.Class.Rep, r.FirstFail, r.Theory)
}

// mismatches counts the positions where got differs from want, plus any
// missing or extra lines.
func mismatches(got, want []string) int64 {
	n := int64(0)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
		}
	}
	if len(got) > len(want) {
		n += int64(len(got) - len(want))
	}
	return n
}

// sweepKind is one sweep workload: its golden table, one pass of the
// public API rendered as golden lines, and what one op is.
type sweepKind struct {
	name string
	op   string // what one progress tick is: a cell or a class
	pass func(ctx context.Context, progress func(done, total int)) ([]string, error)
}

var censusKind = sweepKind{
	name: "census-exact",
	op:   "cell",
	pass: func(ctx context.Context, progress func(done, total int)) ([]string, error) {
		cells, err := sweep.ClassifyGrid(ctx, censusSpec, sweepOpts(progress))
		if err != nil {
			return nil, err
		}
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = cellLine(c)
		}
		return out, nil
	},
}

var surveyKind = sweepKind{
	name: "survey-screen",
	op:   "class",
	pass: func(ctx context.Context, progress func(done, total int)) ([]string, error) {
		rows, err := sweep.Survey(ctx, surveySpec, sweepOpts(progress))
		if err != nil {
			return nil, err
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = surveyLine(r)
		}
		return out, nil
	},
}

func runCensus(cfg config) (outcome, error) { return runSweep(cfg, censusKind) }
func runSurvey(cfg config) (outcome, error) { return runSweep(cfg, surveyKind) }

// runSweep measures repeated passes of one sweep workload. setup_s is the
// median over setupRounds of loading the golden table plus one untimed
// warm-up pass, so work a later change moves into a first pass, or caches
// across passes, shows there. Each measured pass is checked against the
// golden table.
//
// The engine reports progress once per op (cell or class), in the same
// order every pass, so each op's wall and CPU time is the gap between
// consecutive callbacks. Every figure is built from each op's fastest
// time over the run's passes: other tenants of the machine load memory in
// bursts that slow a whole pass by up to half, and last long enough to
// move a median of passes, while each op's minimum drops whatever a burst
// hit. pass_s is the sum of the per-op minima (plus the engine's tail
// after the last op), lat_* are their time-weighted quantiles, and
// cpu_us_per_op is the sum of the per-op CPU minima per op.
func runSweep(cfg config, k sweepKind) (outcome, error) {
	ctx := context.Background()
	o := outcome{metrics: metrics{}}
	var want []string
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		g, err := golden(k.name)
		if err != nil {
			return o, err
		}
		got, err := k.pass(ctx, nil)
		if err != nil {
			return o, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		want = g
		o.attempted += int64(len(want))
		o.failed += mismatches(got, want)
	}

	// wall[i] and cpu[i] hold op i's times over the passes; index
	// len(want) is the tail from the last op to the pass's return.
	wall := make([][]float64, len(want)+1)
	cpu := make([][]float64, len(want)+1)
	var walls []float64
	deadline := time.Now().Add(cfg.seconds)
	for len(walls) < minPasses || time.Now().Before(deadline) {
		i := 0
		var prevT time.Time
		var prevC time.Duration
		tick := func() {
			t, c := time.Now(), cpuTime()
			if i <= len(want) {
				wall[i] = append(wall[i], ms(t.Sub(prevT)))
				cpu[i] = append(cpu[i], us(c-prevC))
			}
			i++
			prevT, prevC = t, c
		}
		prevC = cpuTime()
		t0 := time.Now()
		prevT = t0
		got, err := k.pass(ctx, func(done, total int) { tick() })
		if err != nil {
			return o, err
		}
		tick()
		walls = append(walls, time.Since(t0).Seconds())
		if i != len(want)+1 {
			return o, fmt.Errorf("%s: %d progress callbacks for %d %ss", k.name, i-1, len(want), k.op)
		}
		o.attempted += int64(len(want))
		o.failed += mismatches(got, want)
	}

	opMin := make([]float64, len(want))
	passMs, cpuUs := 0.0, 0.0
	for i := range wall {
		m := quantile(wall[i], 0)
		passMs += m
		cpuUs += quantile(cpu[i], 0)
		if i < len(want) {
			opMin[i] = m
		}
	}
	passS := passMs / 1000
	o.metrics.set("setup_s", median(setups), "s")
	o.metrics.set("pass_s", passS, "s")
	o.metrics.set("ops_per_s", float64(len(want))/passS, "1/s")
	o.metrics.set("lat_p50_ms", timeWeighted(opMin, 0.50), "ms")
	o.metrics.set("lat_p99_ms", timeWeighted(opMin, 0.99), "ms")
	o.metrics.set("cpu_us_per_op", cpuUs/float64(len(want)), "us")
	o.metrics.set("rss_peak_mb", peakRSSMB(), "MB")
	o.note("%s: %d passes of %d %ss; whole-pass wall min %.4f median %.4f max %.4f s",
		k.name, len(walls), len(want), k.op, quantile(walls, 0), median(walls), quantile(walls, 1))
	o.note("per-%s minima: median %.4f ms, p99 %.4f ms, max %.4f ms; lat_* weight each %s by its time",
		k.op, quantile(opMin, 0.5), quantile(opMin, 0.99), quantile(opMin, 1), k.op)
	return o, nil
}

// timeWeighted is the q-quantile of op times weighted by time: the time of
// the op in which the q-th share of the summed time falls. Half of a pass
// is spent in ops at least as long as timeWeighted(xs, 0.5). Unweighted
// quantiles of a census land on sub-millisecond cells that say nothing of
// the time to a result.
func timeWeighted(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	total := 0.0
	for _, x := range s {
		total += x
	}
	acc := 0.0
	for _, x := range s {
		acc += x
		if acc >= q*total {
			return x
		}
	}
	return 0
}
