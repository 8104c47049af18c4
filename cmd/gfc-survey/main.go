// Command gfc-survey extends the paper's Table 1 beyond length 5: for every
// complement/reversal class of forbidden factors of a given length it
// computes the first dimension at which Q_d(f) stops being an isometric
// subgraph of Q_d (or reports "good" if none is found up to -maxd). The
// histogram of first failures addresses the density questions behind the
// paper's concluding conjectures.
//
// The census runs on the sweep engine: one task per factor class, fanned
// across -parallel workers with per-worker scratch buffers, deterministic
// result ordering and live progress reporting.
//
// Usage:
//
//	gfc-survey [-len L] [-minlen L0] [-maxd D] [-method exact|screen|quick]
//	           [-parallel N] [-json] [-progress] [-store-dir DIR]
//	           [-resume LEDGER]
//
// With -resume the census runs through the sweep fabric into an
// append-only hash-chained ledger at the given path (created when
// missing): every finished class is durable immediately, and re-running
// the same command after a crash or Ctrl-C recomputes only the classes
// the ledger does not hold. The rendered output is identical either way.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"text/tabwriter"

	"gfcube/internal/core"
	"gfcube/internal/fabric"
	"gfcube/internal/store"
	"gfcube/internal/sweep"
)

// row is one output line; the JSON shape matches the /v1/sweep/survey
// endpoint rows.
type row struct {
	Factor    string `json:"factor"`
	ClassSize int    `json:"classSize"`
	FirstFail int    `json:"firstFail"` // 0 = good up to maxd
	Theory    string `json:"theory"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-survey: ")
	length := flag.Int("len", 6, "largest forbidden-factor length to survey")
	minLen := flag.Int("minlen", 0, "smallest factor length (default: same as -len)")
	maxD := flag.Int("maxd", 11, "largest dimension to test")
	methodName := flag.String("method", "exact", "cell decision: exact (BFS), screen (2/3-critical words) or quick (screen + exact confirmation)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep workers")
	jsonOut := flag.Bool("json", false, "emit rows as a JSON array instead of a table")
	progress := flag.Bool("progress", false, "report per-class progress on stderr")
	storeDir := flag.String("store-dir", "", "artifact store directory: load precomputed cubes and write back misses")
	resume := flag.String("resume", "", "run through the sweep fabric into this ledger, resuming it if it exists")
	flag.Parse()
	if *length < 1 || *length > 10 {
		log.Fatalf("length %d out of range [1,10]", *length)
	}
	if *minLen == 0 {
		*minLen = *length
	}
	if *minLen < 1 || *minLen > *length {
		log.Fatalf("minlen %d out of range [1,%d]", *minLen, *length)
	}
	if *maxD <= *length {
		log.Fatalf("maxd %d must exceed the factor length %d", *maxD, *length)
	}
	method, err := core.ParseMethod(*methodName)
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the sweep cooperatively: in-flight classes finish,
	// pending ones are abandoned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := sweep.Options{Workers: *parallel}
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		opts.Provider = store.NewProvider(st)
	}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rclasses %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var rows []row
	if *resume != "" {
		rows, err = fabricSurvey(ctx, *resume, *minLen, *length, *maxD, method, *parallel, opts.Provider, *progress)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		spec := sweep.GridSpec{MinLen: *minLen, MaxLen: *length, MaxD: *maxD, Method: method}
		surveyed, err := sweep.Survey(ctx, spec, opts)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range surveyed {
			rows = append(rows, row{
				Factor:    r.Class.Rep.String(),
				ClassSize: r.Class.Size,
				FirstFail: r.FirstFail,
				Theory:    r.Theory,
			})
		}
	}
	good := 0
	for _, r := range rows {
		if r.FirstFail == 0 {
			good++
		}
	}
	// Failing classes first (earliest failure first), good classes last;
	// ties stay in grid (factor) order.
	sort.SliceStable(rows, func(i, j int) bool {
		fi, fj := rows[i].FirstFail, rows[j].FirstFail
		if fi == 0 {
			fi = 1 << 30
		}
		if fj == 0 {
			fj = 1 << 30
		}
		return fi < fj
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			log.Fatal(err)
		}
		return
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "factor\tfirst non-isometric d\ttheory")
	hist := map[int]int{}
	for _, r := range rows {
		ff := "good (all d <= maxd)"
		if r.FirstFail > 0 {
			ff = fmt.Sprintf("%d", r.FirstFail)
		}
		hist[r.FirstFail]++
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Factor, ff, r.Theory)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nclasses of length %d..%d: %d; good up to d=%d: %d (%.1f%%)\n",
		*minLen, *length, len(rows), *maxD, good, 100*float64(good)/float64(len(rows)))
	var keys []int
	for k := range hist {
		if k > 0 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	fmt.Print("first-failure histogram:")
	for _, k := range keys {
		fmt.Printf("  d=%d:%d", k, hist[k])
	}
	fmt.Println()
}

// fabricSurvey runs (or resumes) the census through the sweep fabric:
// one ledger cell per class, durable as soon as it is computed. The
// ledger at path is created when missing and must carry the same grid
// bounds when it exists.
func fabricSurvey(ctx context.Context, path string, minLen, maxLen, maxD int, method core.Method, parallel int, provider core.Provider, progress bool) ([]row, error) {
	sp, err := fabric.Spec{
		Op: fabric.OpSurvey, MinLen: minLen, MaxLen: maxLen,
		MinD: 1, MaxD: maxD, Method: method.String(),
	}.Normalize()
	if err != nil {
		return nil, err
	}
	l, err := fabric.OpenLedger(path, &sp)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = fabric.CreateLedger(path, sp)
	}
	if err != nil {
		return nil, err
	}
	defer l.Close()
	if n := len(l.Records()); n > 0 {
		fmt.Fprintf(os.Stderr, "resuming: %d/%d classes already in %s\n", n, len(sp.Cells()), path)
	}

	if parallel < 1 {
		parallel = 1
	}
	var workers []fabric.Worker
	for i := 0; i < parallel; i++ {
		h := fabric.NewHost(fabric.HostConfig{Provider: provider})
		defer h.Close()
		workers = append(workers, fabric.NewLocalWorker(fmt.Sprintf("local%d", i), h))
	}
	opts := fabric.Options{Workers: workers}
	if progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rclasses %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	co, err := fabric.NewCoordinator(sp, l, opts)
	if err != nil {
		return nil, err
	}
	if err := co.Run(ctx); err != nil {
		return nil, fmt.Errorf("%w (finished classes are saved; rerun to resume)", err)
	}

	// Ledger records are in completion order; restore grid order (the
	// non-fabric path's natural order) by cell index before the display
	// sort.
	recs := append([]fabric.Record(nil), l.Records()...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].I < recs[j].I })
	rows := make([]row, 0, len(recs))
	for _, rec := range recs {
		var v fabric.SurveyValue
		if err := json.Unmarshal(rec.V, &v); err != nil {
			return nil, err
		}
		rows = append(rows, row{Factor: rec.F, ClassSize: rec.ClassSize, FirstFail: v.FirstFail, Theory: v.Theory})
	}
	return rows, nil
}
