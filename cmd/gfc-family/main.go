// Command gfc-family characterizes the ICPP'93 family Q_d(1^s) - the
// original "generalized Fibonacci cubes" of order s - as interconnection
// topologies: order (the s-bonacci numbers), size, degree range, diameter,
// average distance, Hamiltonian-path existence, and the largest hypercube
// hosted isometrically.
//
// Usage:
//
//	gfc-family [-s ORDER] [-maxd D]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/hamilton"
	"gfcube/internal/isometry"
	"gfcube/internal/network"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-family: ")
	s := flag.Int("s", 2, "order of the family (forbidden factor 1^s)")
	maxD := flag.Int("maxd", 10, "largest dimension")
	flag.Parse()
	if *s < 1 {
		log.Fatal("order must be at least 1")
	}
	f := bitstr.Ones(*s)
	if err := core.CheckBuild(*maxD, f); err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\t|V|\t|E|\tdeg\tdiam\tavg dist\tham path\tmax subcube")
	for d := 1; d <= *maxD; d++ {
		c := core.New(d, f)
		n := network.New(c)
		m := n.Metrics()
		_, ham := hamilton.Path(c.Graph(), 0)
		sub := "-"
		if d <= 8 {
			sub = fmt.Sprintf("Q_%d", isometry.LargestHypercube(c, d))
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t[%d,%d]\t%d\t%.3f\t%s\t%s\n",
			d, m.Nodes, m.Links, m.MinDegree, m.MaxDegree, m.Diameter, m.AvgDistance, ham, sub)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ_d(1^%d): vertices are the d-digit strings without %d consecutive 1s;\n", *s, *s)
	fmt.Printf("orders follow the %d-bonacci recurrence (Proposition 3.1: isometric for every d)\n", *s)
}
