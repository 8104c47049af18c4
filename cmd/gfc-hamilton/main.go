// Command gfc-hamilton searches for Hamiltonian paths and cycles in Q_d(f),
// reproducing the "generalized Fibonacci cubes are mostly Hamiltonian"
// companion claims for the Q_d(1^s) family (reference [15] of the paper).
//
// Usage:
//
//	gfc-hamilton [-f FACTOR] [-d DIM] [-cycle] [-budget N]
package main

import (
	"flag"
	"fmt"
	"log"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/hamilton"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-hamilton: ")
	factor := flag.String("f", "11", "forbidden factor (binary string)")
	dim := flag.Int("d", 8, "dimension")
	cycle := flag.Bool("cycle", false, "search for a cycle instead of a path")
	budget := flag.Int64("budget", 0, "backtracking budget (0 = default)")
	flag.Parse()

	f, err := bitstr.Parse(*factor)
	if err != nil {
		log.Fatalf("invalid factor %q: %v", *factor, err)
	}
	if err := core.CheckBuild(*dim, f); err != nil {
		log.Fatal(err)
	}
	c := core.New(*dim, f)
	kind := "path"
	search := hamilton.Path
	if *cycle {
		kind, search = "cycle", hamilton.Cycle
	}
	order, res := search(c.Graph(), *budget)
	fmt.Printf("Q_%d(%s): |V| = %d, Hamiltonian %s: %s\n", *dim, f, c.N(), kind, res)
	if res != hamilton.Found {
		return
	}
	if !hamilton.Verify(c.Graph(), order, *cycle) {
		log.Fatal("returned order failed verification - this is a bug")
	}
	for i, v := range order {
		sep := " "
		if (i+1)%8 == 0 {
			sep = "\n"
		}
		fmt.Printf("%s%s", c.Word(int(v)), sep)
	}
	fmt.Println()
}
