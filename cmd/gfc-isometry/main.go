// Command gfc-isometry decides whether Q_d(f) is an isometric subgraph of
// Q_d: it reports the theoretical verdict (the paper's classification),
// decides the explicitly built cube by the isometry criterion (the converse
// of Lemma 2.4, see core.Cube.IsIsometric), and on a negative answer prints
// the violating pair of least ranks with its cube distance, then up to
// -witnesses p-critical word pairs of the smallest p <= 3 (Lemma 2.4).
//
// Usage:
//
//	gfc-isometry -f FACTOR -d DIM [-witnesses N]
package main

import (
	"flag"
	"fmt"
	"log"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-isometry: ")
	factor := flag.String("f", "101", "forbidden factor (binary string)")
	dim := flag.Int("d", 4, "dimension")
	witnesses := flag.Int("witnesses", 3, "max critical pairs to print")
	flag.Parse()

	f, err := bitstr.Parse(*factor)
	if err != nil {
		log.Fatalf("invalid factor %q: %v", *factor, err)
	}
	if err := core.CheckBuild(*dim, f); err != nil {
		log.Fatal(err)
	}

	cl := core.Classify(f, *dim)
	fmt.Printf("theory:   Q_%d(%s) %s  [%s]\n", *dim, f, cl.Verdict, cl.Reason)

	c := core.New(*dim, f)
	fmt.Printf("cube:     |V| = %d, |E| = %d\n", c.N(), c.M())
	res := c.IsIsometric()
	if res.Isometric {
		fmt.Printf("computed: isometric in Q_%d\n", *dim)
	} else {
		fmt.Printf("computed: NOT isometric in Q_%d\n", *dim)
		fmt.Printf("          witness pair %s -- %s: cube distance %d, Hamming distance %d\n",
			res.U, res.V, res.CubeDist, res.HammingDist)
	}
	if cl.Verdict != core.Unknown && (cl.Verdict == core.Isometric) != res.Isometric {
		log.Fatal("theory and computation DISAGREE - this is a bug")
	}

	if !res.Isometric && *witnesses > 0 {
		for p := 2; p <= 3; p++ {
			pairs := c.CriticalPairs(p, *witnesses)
			for _, pr := range pairs {
				fmt.Printf("%d-critical: %s -- %s\n", pr.P, pr.B, pr.C)
			}
			if len(pairs) > 0 {
				break
			}
		}
	}
}
