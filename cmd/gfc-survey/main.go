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
// With -resume every finished class is also appended to the hash-chained
// results ledger at the given path (created when missing; see
// docs/results-ledger.md), so it survives a crash the moment it is
// computed. Re-running the same command after a crash or Ctrl-C
// recomputes only the classes the ledger does not hold. The rendered
// output is identical either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"text/tabwriter"

	"gfcube/internal/core"
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
	methodName := flag.String("method", "exact", "method recorded in the ledger spec: exact, screen or quick (every method decides cells by the same isometry criterion)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep workers")
	jsonOut := flag.Bool("json", false, "emit rows as a JSON array instead of a table")
	progress := flag.Bool("progress", false, "report per-class progress on stderr")
	storeDir := flag.String("store-dir", "", "artifact store directory: load precomputed cubes and write back misses")
	resume := flag.String("resume", "", "append each finished class to this results ledger, resuming it if it exists")
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
	spec := sweep.GridSpec{MinLen: *minLen, MaxLen: *length, MaxD: *maxD, Method: method}
	var surveyed []sweep.SurveyRow
	if *resume != "" {
		surveyed, err = sweep.SurveyLedger(ctx, spec, *resume, opts)
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("%w (finished classes are saved; rerun to resume)", err)
		}
	} else {
		surveyed, err = sweep.Survey(ctx, spec, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	var rows []row
	for _, r := range surveyed {
		rows = append(rows, row{
			Factor:    r.Class.Rep.String(),
			ClassSize: r.Class.Size,
			FirstFail: r.FirstFail,
			Theory:    r.Theory,
		})
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
