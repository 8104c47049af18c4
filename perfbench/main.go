// Command perfbench is the repository's benchmark: four end-to-end
// workloads over the public layers (sweep, core, automaton, store, service)
// and a traced per-layer ladder. See README.md for the workloads, the
// metrics and what each layer metric should move.
//
//	bash perfbench/run.sh --workload census-exact --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it measures one workload and prints the end-to-end metrics;
// with -trace 1 it replays every workload through span-recording wrappers
// and prints the per-layer metrics. Every answer is checked; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is the result of one workload run or one traced ladder.
type outcome struct {
	attempted, failed int64
	metrics           metrics
	// notes are human-readable lines (sample counts, error rate, layer
	// splits) printed before the result line.
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	out     string // build directory inside the checkout: traces, temp stores
}

// workloads are the end-to-end workloads by name.
var workloads = map[string]func(config) (outcome, error){
	"census-exact":   runCensus,
	"survey-screen":  runSurvey,
	"serve-mixed":    runServeMixed,
	"serve-explicit": runServeExplicit,
}

func main() {
	workload := flag.String("workload", "", "census-exact | survey-screen | serve-mixed | serve-explicit")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the untraced workload")
	out := flag.String("out", ".bench_build", "directory for span dumps and throwaway stores")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: *out}

	refStart := hostRef()
	var o outcome
	var err error
	if *trace == 1 {
		o, err = runLadder(cfg, *workload)
	} else {
		o, err = run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	refEnd := hostRef()
	if *trace == 1 {
		o.metrics.set("host.ref_ms", (refStart+refEnd)/2, "ms")
	}

	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("# %s: attempted %d, succeeded %d, failed %d, error_rate %g\n",
		*workload, o.attempted, o.attempted-o.failed, o.failed, errRate)
	fmt.Printf("# host.ref_ms start %.2f end %.2f\n", refStart, refEnd)
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-40s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}

	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
