// Command gfc-classify regenerates the paper's Table 1 (classification of
// embeddability of generalized Fibonacci cubes) and optionally extends it to
// longer forbidden factors, cross-checking the theory against exact
// computation on explicitly built cubes.
//
// Usage:
//
//	gfc-classify [-maxlen N] [-maxd D] [-verify]
//
// With -verify every theoretical verdict is recomputed exactly for
// dimensions up to -maxd; disagreements (there are none) would be flagged.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-classify: ")
	maxLen := flag.Int("maxlen", 5, "largest forbidden-factor length to classify")
	maxD := flag.Int("maxd", 9, "largest dimension for exact verification")
	verify := flag.Bool("verify", true, "recompute every verdict exactly up to -maxd")
	flag.Parse()
	if *verify {
		// Verification builds Q_d(f) for every d <= maxD; reject a
		// dimension beyond explicit construction before printing a row.
		if err := core.CheckBuild(*maxD, bitstr.Ones(1)); err != nil {
			log.Fatal(err)
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "len\tfactor\tisometric for\tsource\tverified")
	defer w.Flush()

	for length := 1; length <= *maxLen; length++ {
		for _, f := range bitstr.CanonicalOfLen(length) {
			display := f
			if row, ok := core.Table1Lookup(f); ok {
				// Print the representative as it appears in the paper.
				display = row.Word()
			}
			rangeDesc, source := describe(f, *maxD)
			verdict := "-"
			if *verify {
				verdict = verifyRow(f, *maxD)
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\n", length, display, rangeDesc, source, verdict)
		}
	}
}

// describe summarizes for which d the factor yields an isometric subgraph,
// according to the theory (or Table 1 for |f| <= 5).
func describe(f bitstr.Word, maxD int) (string, string) {
	if row, ok := core.Table1Lookup(f); ok {
		if row.UpTo == core.AllD {
			return "all d", row.Citation
		}
		return fmt.Sprintf("d <= %d", row.UpTo), row.Citation
	}
	// Longer factors: scan the theory for a threshold pattern.
	lastIso, firstNon := 0, -1
	unknown := false
	source := ""
	for d := 1; d <= maxD+6; d++ {
		cl := core.Classify(f, d)
		switch cl.Verdict {
		case core.Isometric:
			lastIso = d
			if source == "" && d > f.Len() {
				source = cl.Reason
			}
		case core.NotIsometric:
			if firstNon == -1 {
				firstNon = d
				source = cl.Reason
			}
		case core.Unknown:
			unknown = true
		}
	}
	switch {
	case firstNon == -1 && !unknown:
		return "all d", source
	case unknown:
		return fmt.Sprintf("d <= %d known; gaps open", lastIso), source
	default:
		return fmt.Sprintf("d <= %d", firstNon-1), source
	}
}

// verifyRow recomputes the verdict exactly for d = 1..maxD and reports
// "ok(d<=maxD)" or the first disagreement.
func verifyRow(f bitstr.Word, maxD int) string {
	for d := 1; d <= maxD; d++ {
		cl := core.Classify(f, d)
		if cl.Verdict == core.Unknown {
			continue
		}
		res := core.New(d, f).IsIsometric()
		if res.Isometric != (cl.Verdict == core.Isometric) {
			return fmt.Sprintf("MISMATCH at d=%d", d)
		}
	}
	return fmt.Sprintf("ok (d<=%d)", maxD)
}
