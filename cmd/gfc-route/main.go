// Command gfc-route evaluates Q_d(f) as an interconnection network (the
// ICPP'93 setting): static topology metrics, routing under uniform and
// permutation traffic with the greedy bit-fixing and shortest-path oracle
// routers, one-to-all broadcast, and random-fault tolerance.
//
// When endpoints are given (-src/-dst words or -srcrank/-dstrank
// addresses), or when -d exceeds the explicit-construction ceiling, the
// command switches to the implicit DFA-rank backend and prints a single
// rank-addressed route trace instead: every hop is decided by local factor
// tests and every address translated in O(d) table lookups, so routes on
// Q_62(11) — about 10^13 nodes — print instantly with no construction.
//
// Usage:
//
//	gfc-route [-f FACTOR] [-d DIM] [-packets N] [-faults K] [-trials T] [-seed S]
//	gfc-route [-f FACTOR] [-d DIM] [-src WORD] [-dst WORD]
//	gfc-route [-f FACTOR] [-d DIM] [-srcrank R1] [-dstrank R2]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/network"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-route: ")
	factor := flag.String("f", "11", "forbidden factor (binary string)")
	dim := flag.Int("d", 10, "dimension")
	packets := flag.Int("packets", 512, "packets for uniform traffic")
	faults := flag.Int("faults", 3, "random node faults per trial")
	trials := flag.Int("trials", 25, "fault trials")
	seed := flag.Int64("seed", 42, "workload seed")
	srcWord := flag.String("src", "", "route source word (implicit single-route mode)")
	dstWord := flag.String("dst", "", "route destination word (implicit single-route mode)")
	srcRank := flag.Int64("srcrank", -1, "route source rank (implicit single-route mode)")
	dstRank := flag.Int64("dstrank", -1, "route destination rank (implicit single-route mode)")
	flag.Parse()

	f, err := bitstr.Parse(*factor)
	if err != nil {
		log.Fatalf("invalid factor %q: %v", *factor, err)
	}
	if f.Len() == 0 {
		log.Fatal("empty forbidden factor")
	}

	singleRoute := *srcWord != "" || *dstWord != "" || *srcRank >= 0 || *dstRank >= 0
	if singleRoute || *dim > core.MaxBuildDim {
		routeImplicit(f, *dim, *srcWord, *dstWord, *srcRank, *dstRank)
		return
	}
	if err := core.CheckBuild(*dim, f); err != nil {
		log.Fatal(err)
	}

	n := network.New(core.New(*dim, f))
	fmt.Printf("network Q_%d(%s): %s\n\n", *dim, f, n.Metrics())

	greedy := network.NewGreedyRouter(n)
	oracle := network.NewOracleRouter(n)
	uniform := n.UniformPairs(*packets, *seed)
	perm := n.PermutationPairs(*seed)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\trouter\tsuccess\tavg stretch\tmax hops")
	for _, row := range []struct {
		name  string
		pairs [][2]int
		r     network.Router
	}{
		{"uniform", uniform, greedy},
		{"uniform", uniform, oracle},
		{"permutation", perm, greedy},
		{"permutation", perm, oracle},
	} {
		st := n.EvaluateRouting(row.r, row.pairs)
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%d\n",
			row.name, row.r.Name(), st.SuccessRate(), st.AvgStretch(), st.MaxHops)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	sim := n.Simulate(network.MakePackets(perm), oracle, network.SimConfig{})
	fmt.Printf("\nsynchronous permutation run (oracle): %s\n", sim)

	bc := n.Broadcast(0)
	fmt.Printf("broadcast from node 0: rounds=%d messages=%d reached=%d/%d\n",
		bc.Rounds, bc.Messages, bc.Reached, n.Size())

	fs := n.RandomFaults(*faults, *trials, *seed)
	fmt.Printf("faults: kill=%d trials=%d connected=%d/%d mean_routable=%.4f worst=%.4f\n",
		fs.Killed, fs.Trials, fs.ConnectedTrials, fs.Trials, fs.MeanRoutable, fs.WorstRoutable)
	fmt.Printf("single-node articulation-free fraction: %.4f\n", n.ArticulationFreeFraction())
}

// routeImplicit resolves the endpoints against the implicit backend and
// prints one rank-addressed route trace.
func routeImplicit(f bitstr.Word, d int, srcWord, dstWord string, srcRank, dstRank int64) {
	if d < 1 || d > bitstr.MaxLen {
		log.Fatalf("implicit routing needs 1 <= d <= %d, got %d", bitstr.MaxLen, d)
	}
	im := core.NewImplicit(d, f)
	order := im.Order()
	fmt.Printf("implicit Q_%d(%s): %d nodes, DFA-rank addressed, no construction\n", d, f, order)
	if order == 0 {
		log.Fatal("the cube has no vertices")
	}

	// Endpoint resolution: explicit words win, then ranks, then defaults
	// spread across the address space.
	resolve := func(name, word string, rank, def int64) bitstr.Word {
		if word != "" {
			w, err := bitstr.Parse(word)
			if err != nil {
				log.Fatalf("invalid %s word %q: %v", name, word, err)
			}
			if !im.Contains(w) {
				log.Fatalf("%s=%s is not a vertex of Q_%d(%s)", name, word, d, f)
			}
			return w
		}
		if rank < 0 {
			rank = def
		}
		w, ok := im.UnrankWord(rank)
		if !ok {
			log.Fatalf("%s rank %d out of range [0, %d)", name, rank, order)
		}
		return w
	}
	// order/7*5, not 5*order/7: orders approach 2^62, so the product
	// first would overflow int64.
	src := resolve("src", srcWord, srcRank, order/7)
	dst := resolve("dst", dstWord, dstRank, order/7*5)

	router := network.NewViewRouter(im)
	hops, ok := router.RouteWords(src, dst, 0)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "hop\trank\tword")
	for i, h := range hops {
		fmt.Fprintf(w, "%d\t%d\t%s\n", i, h.Rank, h.Word)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("routing failed (non-isometric instance or hop budget exceeded)")
	}
	hd := src.HammingDistance(dst)
	fmt.Printf("delivered in %d hops (Hamming distance %d, stretch %.3f)\n",
		len(hops)-1, hd, float64(len(hops)-1)/float64(max(hd, 1)))
}
