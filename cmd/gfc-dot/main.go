// Command gfc-dot emits Q_d(f) in Graphviz DOT format with vertices labelled
// by their binary strings, regenerating the paper's Figure 1 (Q_4(101)) and
// Figure 2 (Q_5(11) vs Q_4(110)).
//
// Usage:
//
//	gfc-dot -f FACTOR -d DIM > out.dot
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-dot: ")
	factor := flag.String("f", "101", "forbidden factor (binary string)")
	dim := flag.Int("d", 4, "dimension")
	flag.Parse()

	f, err := bitstr.Parse(*factor)
	if err != nil {
		log.Fatalf("invalid factor %q: %v", *factor, err)
	}
	if err := core.CheckBuild(*dim, f); err != nil {
		log.Fatal(err)
	}
	c := core.New(*dim, f)
	name := fmt.Sprintf("Q_%d(%s)", *dim, f)
	if err := c.Graph().WriteDOT(os.Stdout, name, func(v int) string { return c.Word(v).String() }); err != nil {
		log.Fatal(err)
	}
}
