// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md, "Experiment index", and EXPERIMENTS.md for the
// paper-vs-measured record). Each BenchmarkEXX_* corresponds to one
// experiment ID; the Ablation benchmarks measure the design choices called
// out in DESIGN.md.
package gfcube

import (
	"fmt"
	"math/big"
	"testing"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/graph"
	"gfcube/internal/hamilton"
	"gfcube/internal/isometry"
	"gfcube/internal/lucas"
	"gfcube/internal/network"
)

// E1 - Figure 1: construction and structural summary of Q_4(101).
func BenchmarkE01_Fig1_Q4_101(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := core.New(4, bitstr.MustParse("101"))
		st := c.Graph().Stats()
		if c.N() != 12 || !st.Connected {
			b.Fatal("Fig. 1 structure wrong")
		}
	}
}

// E2 - Table 1: classify every factor of length <= 5 for d = 1..9, exactly.
func BenchmarkE02_Table1_Classification(b *testing.B) {
	rows := core.Table1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			f := row.Word()
			for d := 1; d <= 9; d++ {
				res := core.New(d, f).IsIsometric()
				if (row.VerdictFor(d) == core.Isometric) != res.Isometric {
					b.Fatalf("Table 1 mismatch at %s d=%d", row.Factor, d)
				}
			}
		}
	}
}

// E3 - Eqs (1)-(3): vertex/edge/square sequences of Q_d(111) to d = 40,
// recurrence vs transfer-matrix DP.
func BenchmarkE03_Counting_Q111(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := core.RecurrenceQ111(40)
		dp := core.CountSeq(40, bitstr.MustParse("111"))
		for d := 0; d <= 40; d++ {
			if rec[d].V.Cmp(dp[d].V) != 0 || rec[d].E.Cmp(dp[d].E) != 0 || rec[d].S.Cmp(dp[d].S) != 0 {
				b.Fatal("recurrence mismatch")
			}
		}
	}
}

// E4 - Eqs (4)-(6) and Propositions 6.2/6.3: Q_d(110) counts to d = 40.
func BenchmarkE04_Counting_Q110(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := core.RecurrenceQ110(40)
		for d := 0; d <= 40; d++ {
			cf := core.ClosedFormsQ110(d)
			if cf.V.Cmp(rec[d].V) != 0 || cf.E.Cmp(rec[d].E) != 0 || cf.S.Cmp(rec[d].S) != 0 {
				b.Fatal("closed form mismatch")
			}
		}
	}
}

// E5 - Figure 2: Γ_{d+1} vs Q_d(110) comparison across d = 1..10.
func BenchmarkE05_Fig2_Comparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 10; d++ {
			gamma := core.Fibonacci(d + 1)
			h := core.New(d, bitstr.MustParse("110"))
			if gamma.N() != h.N()+1 || gamma.M() != h.M()+1 {
				b.Fatal("Fig. 2 identities broken")
			}
			if gamma.Graph().CountSquares() != h.Graph().CountSquares() {
				b.Fatal("square identity broken")
			}
		}
	}
}

// E6 - Proposition 6.1: max degree and diameter equal d for embeddable f.
func BenchmarkE06_DegreeDiameter(b *testing.B) {
	factors := []string{"11", "111", "110", "1010", "11010"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fs := range factors {
			c := core.New(9, bitstr.MustParse(fs))
			st := c.Graph().Stats()
			if c.Graph().MaxDegree() != 9 || st.Diameter != 9 {
				b.Fatalf("Prop 6.1 fails for %s", fs)
			}
		}
	}
}

// E7 - Proposition 6.4: median closure of |f| = 2 vs |f| >= 3.
func BenchmarkE07_MedianClosure(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := core.Fibonacci(6).IsMedianClosed(); !ok {
			b.Fatal("Γ_6 must be median closed")
		}
		if ok, _ := core.New(6, bitstr.MustParse("110")).IsMedianClosed(); ok {
			b.Fatal("Q_6(110) must not be median closed")
		}
	}
}

// E8 - Section 8: Winkler analysis showing Q_d(101) is in no hypercube.
func BenchmarkE08_PartialCube_Q101(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := isometry.Analyze(core.New(6, bitstr.MustParse("101")).Graph())
		if a.IsPartialCube() {
			b.Fatal("Q_6(101) must not be a partial cube")
		}
	}
}

// E9 - Section 7: f-dimension of the standard guests under f = 11.
func BenchmarkE09_FDimension(b *testing.B) {
	guests := []*graph.Graph{graph.Path(4), graph.Cycle(4), graph.Star(3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range guests {
			res := isometry.FDim(g, bitstr.Ones(2), 5)
			if !res.Found {
				b.Fatal("f-dimension not found")
			}
		}
	}
}

// E10 - Sections 3-5 series: verify an embeddable and a non-embeddable
// family member at scale, via witness pairs and exact checks.
func BenchmarkE10_SeriesVerification(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Theorem 4.3 member, embeddable for all d.
		if res := core.New(10, bitstr.TwoOnesBlocks(2)).IsIsometric(); !res.Isometric {
			b.Fatal("Thm 4.3 member must embed")
		}
		// Proposition 4.2 member with proof witness.
		f := bitstr.AlternatingMid(1, 1)
		c := core.New(7, f)
		bw, cw := core.WitnessProp42(1, 1, 7)
		if !c.IsCriticalPair(bw, cw) {
			b.Fatal("Prop 4.2 witness must be critical")
		}
	}
}

// E11 - Conjecture 8.1: doubling good factors stays good (tested range).
func BenchmarkE11_Conjecture81(b *testing.B) {
	good := []string{"11", "10", "110"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fs := range good {
			f := bitstr.MustParse(fs)
			ff := f.Concat(f)
			if res := core.New(9, ff).IsIsometric(); !res.Isometric {
				b.Fatalf("Conjecture 8.1 fails for %s", fs)
			}
		}
	}
}

// E12 - interconnection-network evaluation on Γ_d (ICPP'93 context).

func BenchmarkE12_NetworkMetrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := network.NewFibonacci(10)
		m := n.Metrics()
		if int(m.Diameter) != 10 {
			b.Fatal("Γ_10 diameter wrong")
		}
	}
}

func BenchmarkE12_RoutingUniform(b *testing.B) {
	n := network.NewFibonacci(12)
	r := network.NewGreedyRouter(n)
	pairs := n.UniformPairs(1024, 42)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := n.EvaluateRouting(r, pairs)
		if st.SuccessRate() != 1 {
			b.Fatal("greedy must succeed on Γ_12")
		}
	}
}

func BenchmarkE12_SimulatePermutation(b *testing.B) {
	n := network.NewFibonacci(10)
	r := network.NewOracleRouter(n)
	pairs := n.PermutationPairs(7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := n.Simulate(network.MakePackets(pairs), r, network.SimConfig{})
		if res.Delivered != len(pairs) {
			b.Fatal("permutation traffic must deliver")
		}
	}
}

func BenchmarkE12_Broadcast(b *testing.B) {
	n := network.NewFibonacci(12)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := n.Broadcast(0)
		if res.Reached != n.Size() {
			b.Fatal("broadcast must reach all")
		}
	}
}

func BenchmarkE12_FaultTolerance(b *testing.B) {
	n := network.NewFibonacci(9)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := n.RandomFaults(5, 10, 3)
		if st.MeanRoutable <= 0 {
			b.Fatal("fault stats degenerate")
		}
	}
}

// Hamiltonian search on the ICPP'93 family (reference [15]).
func BenchmarkHamiltonianPathFibonacci(b *testing.B) {
	g := core.Fibonacci(10).Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, res := hamilton.Path(g, 0); res != hamilton.Found {
			b.Fatal("Γ_10 should have a Hamiltonian path")
		}
	}
}

// Ablation benches: the design choices called out in DESIGN.md.

// DFA-pruned enumeration vs filtering all 2^d words.
func BenchmarkAblation_EnumerationDFA(b *testing.B) {
	a := automaton.New(bitstr.Ones(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		a.Enumerate(22, func(bitstr.Word) bool { count++; return true })
		if count != 46368 { // F_24
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkAblation_EnumerationFilter(b *testing.B) {
	f := bitstr.Ones(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		bitstr.ForEach(22, func(w bitstr.Word) bool {
			if !w.HasFactor(f) {
				count++
			}
			return true
		})
		if count != 46368 {
			b.Fatal("wrong count")
		}
	}
}

// Critical-word screening vs the isometry check on a non-isometric
// instance (the screen finds a 2-critical pair quickly; the check decides
// by the criterion, then names the MS-BFS witness).
func BenchmarkAblation_CriticalScreen(b *testing.B) {
	c := core.New(11, bitstr.MustParse("101"))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.HasCriticalPair(3); !ok {
			b.Fatal("screen must find a pair")
		}
	}
}

func BenchmarkAblation_ExactIsometry(b *testing.B) {
	c := core.New(11, bitstr.MustParse("101"))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := c.IsIsometric(); res.Isometric {
			b.Fatal("Q_11(101) must not be isometric")
		}
	}
}

// The isometry criterion vs the all-pairs serial MS-BFS definition on an
// isometric instance (the definition's worst case: every pair is
// verified).
func BenchmarkAblation_IsometryCriterion(b *testing.B) {
	c := core.Fibonacci(14)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := c.IsIsometric(); !res.Isometric {
			b.Fatal("Γ_14 must be isometric")
		}
	}
}

func BenchmarkAblation_IsometrySerial(b *testing.B) {
	c := core.Fibonacci(14)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := c.IsIsometricSerial(); !res.Isometric {
			b.Fatal("Γ_14 must be isometric")
		}
	}
}

// Transfer-matrix counting vs explicit construction for |E(Q_d(f))|.
func BenchmarkAblation_CountDP(b *testing.B) {
	f := bitstr.MustParse("110")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if core.Count(18, f).E.Sign() <= 0 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkAblation_CountExplicit(b *testing.B) {
	f := bitstr.MustParse("110")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := core.New(18, f)
		if c.M() <= 0 {
			b.Fatal("bad count")
		}
	}
}

// E13 - extension: length-6 census via the critical-word screen.
func BenchmarkE13_SurveyLength6(b *testing.B) {
	classes := bitstr.CanonicalOfLen(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		good := 0
		for _, f := range classes {
			isGood := true
			for d := 7; d <= 10; d++ {
				if _, found := core.New(d, f).HasCriticalPair(3); found {
					isGood = false
					break
				}
			}
			if isGood {
				good++
			}
		}
		if good < 6 {
			b.Fatalf("screen found only %d good classes", good)
		}
	}
}

// E14 - extension: subcube capacity of Γ_7.
func BenchmarkE14_SubcubeCapacity(b *testing.B) {
	host := core.Fibonacci(7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if isometry.LargestHypercube(host, 5) != 4 {
			b.Fatal("Γ_7 should host exactly Q_4")
		}
	}
}

// Lucas cube construction and isometry (the cyclic sibling family).
func BenchmarkLucasCube(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := lucas.New(12)
		if int64(c.N()) != 322 { // L_12
			b.Fatal("wrong Lucas order")
		}
	}
}

// Misrouting recovery on the non-isometric Q_8(101).
func BenchmarkDerouteRecovery(b *testing.B) {
	n := network.New(core.New(8, bitstr.MustParse("101")))
	pairs := n.UniformPairs(256, 9)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := n.EvaluateDeroute(pairs)
		if st.SuccessRate() < 0.9 {
			b.Fatal("deroute success collapsed")
		}
	}
}

// Exact Wiener index of Γ_100 (isometric, so Hamming = graph distance).
func BenchmarkWienerGamma100(b *testing.B) {
	f := bitstr.Ones(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if core.WienerHamming(100, f).Sign() <= 0 {
			b.Fatal("bad Wiener value")
		}
	}
}

// The bit-parallel multi-source distance engine vs one serial BFS per
// source, on the full eccentricity/Wiener aggregation of Γ_16 (n = 2584).
// The engine path is what Stats, DistanceHistogram, the witness search of
// a non-isometric IsIsometric and the Θ analysis all run on.
func BenchmarkMSBFS(b *testing.B) {
	g := core.Fibonacci(16).Graph()
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := g.Stats()
			if st.Diameter != 16 {
				b.Fatal("Γ_16 diameter wrong")
			}
		}
	})
	b.Run("serialBFS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := graph.NewTraverser(g)
			dist := make([]int32, g.N())
			var sum uint64
			diam := int32(0)
			for src := 0; src < g.N(); src++ {
				t.BFS(src, dist)
				for v, d := range dist {
					if v > src {
						sum += uint64(d)
					}
					if d > diam {
						diam = d
					}
				}
			}
			// Consume both aggregates so neither half of the serial
			// baseline can be dead-code eliminated.
			if diam != 16 || sum == 0 {
				b.Fatal("Γ_16 stats wrong")
			}
		}
	})
}

// Streaming Θ-relation analysis (Winkler partial-cube test) on Γ_12: the
// Section 7-8 machinery that formerly materialized an n×n distance matrix.
func BenchmarkThetaAnalyze(b *testing.B) {
	g := core.Fibonacci(12).Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := isometry.Analyze(g)
		if a.Idim() != 12 {
			b.Fatal("idim(Γ_12) wrong")
		}
	}
}

// Zeckendorf addressing: rank+unrank round trip at d = 60.
func BenchmarkRankUnrankD60(b *testing.B) {
	r := automaton.NewRanker(bitstr.Ones(2), 60)
	idx := new(big.Int).Rsh(r.Total(), 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := r.Unrank(idx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Rank(w); err != nil {
			b.Fatal(err)
		}
	}
}

// Cube construction scaling, the workhorse of every experiment.
func BenchmarkConstructCube(b *testing.B) {
	for _, d := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("Fibonacci_d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := core.Fibonacci(d)
				if c.N() == 0 {
					b.Fatal("empty cube")
				}
			}
		})
	}
}

// Column construction: building the whole Fibonacci column Q_1(11) ..
// Q_20(11) — the access pattern of every grid sweep. "incremental" keeps
// one core.ColumnBuilder across the column, so each cell is a single
// O(|V|+|E|) step from the previous cube. "fromscratch" calls core.New
// per cell, which runs one chain from Q_0 per cell: what a sweep without
// column affinity pays.
func BenchmarkColumnBuild(b *testing.B) {
	const maxD = 20
	f := bitstr.Ones(2)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col := core.NewColumnBuilder()
			for d := 1; d <= maxD; d++ {
				if col.Advance(d, f).N() == 0 {
					b.Fatal("empty cube")
				}
			}
		}
	})
	b.Run("fromscratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for d := 1; d <= maxD; d++ {
				if core.New(d, f).N() == 0 {
					b.Fatal("empty cube")
				}
			}
		}
	})
}
