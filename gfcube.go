// Package gfcube is a library for generalized Fibonacci cubes: the graphs
// Q_d(f) obtained from the d-dimensional hypercube Q_d by removing every
// vertex whose binary string contains a fixed factor f (Ilić, Klavžar, Rho,
// "Generalized Fibonacci cubes"; the Fibonacci cube Γ_d = Q_d(11) was
// introduced as an interconnection topology by Hsu, and the ICPP'93 line of
// work studied the Q_d(1^s) family).
//
// The package is a facade over the internal implementation and exposes:
//
//   - binary words and the forbidden-factor families of the paper,
//   - explicit construction of Q_d(f) with exact isometric-embeddability
//     testing and p-critical word search,
//   - the implicit DFA-rank backend (Implicit) answering order, rank/unrank
//     addressing, membership, degree and neighbor queries for any d up to 62
//     from O(|f|·d) memory, behind the shared CubeView interface,
//   - exact vertex/edge/square counting for arbitrary dimension via
//     transfer-matrix DP, with the paper's recurrences and closed forms,
//   - the embeddability classification theory of Sections 3-5 (Table 1),
//   - partial-cube recognition (Winkler's theorem), isometric dimension and
//     the f-dimension of Section 7,
//   - an interconnection-network simulator (routing, broadcast, traffic,
//     fault injection), and
//   - Hamiltonian path/cycle search.
//
// The expensive entry points have context-aware variants in the internal
// packages (core.CountCtx, Cube.IsIsometricCtx, network.SimulateCtx,
// hamilton.PathCtx, isometry.FDimCtx), and cmd/gfc-serve exposes all of the
// above as a concurrent HTTP JSON API behind a sharded singleflight LRU
// cache and a bounded worker pool; see internal/README.md.
package gfcube

import (
	"context"
	"math/big"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/fib"
	"gfcube/internal/graph"
	"gfcube/internal/hamilton"
	"gfcube/internal/hypercube"
	"gfcube/internal/isometry"
	"gfcube/internal/lucas"
	"gfcube/internal/network"
	"gfcube/internal/sweep"
)

// Word is a fixed-length binary string, the vertex alphabet of hypercubes
// and their generalized Fibonacci subcubes.
type Word = bitstr.Word

// ParseWord converts a string of '0'/'1' characters to a Word.
func ParseWord(s string) (Word, error) { return bitstr.Parse(s) }

// MustWord is ParseWord for constant strings; it panics on invalid input.
func MustWord(s string) Word { return bitstr.MustParse(s) }

// Ones returns the word 1^s; Ones(2) is the Fibonacci factor.
func Ones(s int) Word { return bitstr.Ones(s) }

// Zeros returns the word 0^s.
func Zeros(s int) Word { return bitstr.Zeros(s) }

// Graph is a finite simple undirected graph (used for guests of embedding
// computations and for direct structural access to cubes).
type Graph = graph.Graph

// Cube is an explicitly constructed generalized Fibonacci cube Q_d(f).
type Cube = core.Cube

// New constructs Q_d(f).
func New(d int, f Word) *Cube { return core.New(d, f) }

// FibonacciCube returns Γ_d = Q_d(11).
func FibonacciCube(d int) *Cube { return core.Fibonacci(d) }

// HypercubeGraph returns the full hypercube Q_d as a graph.
func HypercubeGraph(d int) *Graph { return hypercube.Build(d) }

// IsometryResult reports an exact embeddability check; see Cube.IsIsometric.
type IsometryResult = core.IsometryResult

// IsIsometric builds Q_d(f) and decides whether it is an isometric
// subgraph of Q_d; see Cube.IsIsometric.
func IsIsometric(d int, f Word) IsometryResult { return core.New(d, f).IsIsometric() }

// Verdict is a theoretical embeddability verdict.
type Verdict = core.Verdict

// Re-exported verdict values.
const (
	Isometric    = core.Isometric
	NotIsometric = core.NotIsometric
	Unknown      = core.Unknown
)

// Classification is a verdict plus the supporting result of the paper.
type Classification = core.Classification

// Classify applies the paper's classification theory to (f, d).
func Classify(f Word, d int) Classification { return core.Classify(f, d) }

// Table1Row and Table1 expose the paper's Table 1 (classification for
// factors of length at most 5).
type Table1Row = core.Table1Row

// Table1 is the transcription of the paper's Table 1.
func Table1() []Table1Row { return core.Table1 }

// CriticalPair is a pair of p-critical words (Lemma 2.4 witnesses).
type CriticalPair = core.CriticalPair

// Scratch holds reusable construction/BFS buffers for grid sweeps; one per
// goroutine.
type Scratch = core.Scratch

// NewScratch returns an empty scratch area.
func NewScratch() *Scratch { return core.NewScratch() }

// FactorClass is a complement/reversal equivalence class of forbidden
// factors (Lemmas 2.2/2.3): all members yield isomorphic cubes.
type FactorClass = core.Class

// FactorClasses returns the canonical classes of every factor length in
// [minLen, maxLen] in deterministic grid order.
func FactorClasses(minLen, maxLen int) []FactorClass { return core.Classes(minLen, maxLen) }

// GridCell is the decided classification of one (factor class, d) cell.
type GridCell = core.Cell

// GridOptions bounds a classification grid; see core.GridOptions.
type GridOptions = core.GridOptions

// ClassifyAll classifies the full (d, f) grid up to factor length maxLen,
// deduplicated by symmetry — the Table 1 computation with arbitrary
// bounds, serial reference implementation. The sweep engine
// (internal/sweep, surfaced below) computes the identical grid in
// parallel.
func ClassifyAll(maxLen int, opts GridOptions) []GridCell { return core.ClassifyAll(maxLen, opts) }

// SweepOptions tunes the parallel sweep engine (workers, progress).
type SweepOptions = sweep.Options

// SweepGridSpec bounds a sweep grid (factor lengths, dimensions, method).
type SweepGridSpec = sweep.GridSpec

// SweepSurveyRow is a first-failure survey row.
type SweepSurveyRow = sweep.SurveyRow

// ClassifyGrid evaluates the classification grid on the parallel sweep
// engine with deterministic result ordering; identical to ClassifyAll on
// the same bounds.
func ClassifyGrid(ctx context.Context, spec SweepGridSpec, opts SweepOptions) ([]GridCell, error) {
	return sweep.ClassifyGrid(ctx, spec, opts)
}

// SweepSurvey computes the first non-isometric dimension per factor class
// in parallel (the gfc-survey workload).
func SweepSurvey(ctx context.Context, spec SweepGridSpec, opts SweepOptions) ([]SweepSurveyRow, error) {
	return sweep.Survey(ctx, spec, opts)
}

// BigCounts holds exact |V|, |E|, |S| for arbitrary dimension.
type BigCounts = core.BigCounts

// Count returns the exact number of vertices, edges and squares of Q_d(f)
// without constructing the graph.
func Count(d int, f Word) BigCounts { return core.Count(d, f) }

// CountSeq returns Count(d, f) for d = 0..dmax.
func CountSeq(dmax int, f Word) []BigCounts { return core.CountSeq(dmax, f) }

// RecurrenceQ111 evaluates the paper's recurrences (1)-(3) for Q_d(111).
func RecurrenceQ111(dmax int) []BigCounts { return core.RecurrenceQ111(dmax) }

// RecurrenceQ110 evaluates the paper's recurrences (4)-(6) for Q_d(110).
func RecurrenceQ110(dmax int) []BigCounts { return core.RecurrenceQ110(dmax) }

// ClosedFormsQ110 evaluates |V(H_d)| = F_{d+3}-1 and the closed forms of
// Propositions 6.2 and 6.3 for H_d = Q_d(110).
func ClosedFormsQ110(d int) BigCounts { return core.ClosedFormsQ110(d) }

// WienerHamming returns the exact sum of pairwise Hamming distances of the
// vertices of Q_d(f); for isometric cubes this is the Wiener index. It
// needs no graph construction, so any d works. Cube.WienerExact is the
// BFS ground truth on constructed cubes: equal on isometric cubes,
// strictly larger on connected non-isometric ones.
func WienerHamming(d int, f Word) *big.Int { return core.WienerHamming(d, f) }

// MeanHammingDistance returns the exact mean pairwise Hamming distance of
// Q_d(f) as a rational; for isometric cubes this is the network's mean
// shortest-path distance.
func MeanHammingDistance(d int, f Word) *big.Rat { return core.MeanHammingDistance(d, f) }

// FibonacciNumber returns F_n with F_1 = F_2 = 1 (uint64 range).
func FibonacciNumber(n int) uint64 { return fib.F(n) }

// PartialCubeAnalysis is the Θ-relation analysis of a graph (Winkler
// machinery of Sections 7-8).
type PartialCubeAnalysis = isometry.Analysis

// AnalyzePartialCube computes Θ, Θ*, bipartiteness and the Winkler
// transitivity test for a graph.
func AnalyzePartialCube(g *Graph) *PartialCubeAnalysis { return isometry.Analyze(g) }

// Idim returns the isometric dimension of a graph, or -1 if it embeds in no
// hypercube.
func Idim(g *Graph) int { return isometry.Analyze(g).Idim() }

// FDimResult reports an f-dimension computation.
type FDimResult = isometry.FDimResult

// FDim computes dim_f(G) exactly by bounded search (Section 7).
func FDim(g *Graph, f Word, maxD int) FDimResult { return isometry.FDim(g, f, maxD) }

// Network is a generalized Fibonacci cube as an interconnection network.
type Network = network.Network

// NewNetwork wraps a cube as a network.
func NewNetwork(c *Cube) *Network { return network.New(c) }

// Router forwards packets hop by hop.
type Router = network.Router

// NewOracleRouter returns the shortest-path baseline router.
func NewOracleRouter(n *Network) Router { return network.NewOracleRouter(n) }

// NewGreedyRouter returns the canonical greedy bit-fixing router.
func NewGreedyRouter(n *Network) Router { return network.NewGreedyRouter(n) }

// Packet is a unit of simulated traffic.
type Packet = network.Packet

// SimConfig controls the synchronous network simulator.
type SimConfig = network.SimConfig

// SimResult aggregates a simulation run.
type SimResult = network.SimResult

// MakePackets converts (src, dst) pairs into simulator packets.
func MakePackets(pairs [][2]int) []Packet { return network.MakePackets(pairs) }

// HamiltonResult classifies a Hamiltonian search outcome.
type HamiltonResult = hamilton.Result

// Re-exported Hamiltonian search outcomes.
const (
	HamiltonFound        = hamilton.Found
	HamiltonNone         = hamilton.None
	HamiltonInconclusive = hamilton.Inconclusive
)

// HamiltonianPath searches for a Hamiltonian path in the cube (bounded
// backtracking; budget 0 uses a generous default).
func HamiltonianPath(c *Cube, budget int64) ([]int32, HamiltonResult) {
	return hamilton.Path(c.Graph(), budget)
}

// HamiltonianCycle searches for a Hamiltonian cycle in the cube.
func HamiltonianCycle(c *Cube, budget int64) ([]int32, HamiltonResult) {
	return hamilton.Cycle(c.Graph(), budget)
}

// LucasCube is the cyclic sibling Λ_d of the Fibonacci cube: no two
// consecutive 1s circularly; |V(Λ_d)| is the Lucas number L_d.
type LucasCube = lucas.Cube

// NewLucasCube constructs Λ_d.
func NewLucasCube(d int) *LucasCube { return lucas.New(d) }

// NewGeneralLucasCube constructs the generalized Lucas cube Λ_d(f): vertices
// avoid f circularly. Λ_d(11) recovers the classical Lucas cube.
func NewGeneralLucasCube(d int, f Word) *LucasCube { return lucas.NewGeneral(d, f) }

// Ranker maps f-free words to their index in the sorted enumeration and
// back, in O(d) per query after O(d·|f|) preprocessing — the generalized
// Zeckendorf node addressing of Fibonacci-cube networks.
type Ranker = automaton.Ranker

// NewRanker prepares rank/unrank tables for words of length d avoiding f.
func NewRanker(f Word, d int) *Ranker { return automaton.NewRanker(f, d) }

// WordRouter routes between vertex words of any dimension with purely local
// decisions (no cube construction): the distributed greedy router.
type WordRouter = network.WordRouter

// NewWordRouter builds a word-level router for the factor f.
func NewWordRouter(f Word) *WordRouter { return network.NewWordRouter(f) }

// CubeView is the backend-independent query interface over Q_d(f): order,
// membership, rank/unrank addressing, degrees and neighbor iteration,
// served by either the explicit Cube or the implicit DFA-rank backend.
type CubeView = core.CubeView

// Implicit is the implicit DFA-rank backend: CubeView queries for any
// d <= 62 from O(|f|·d) memory, never enumerating the vertex set.
type Implicit = core.Implicit

// NewImplicit builds the implicit backend for Q_d(f).
func NewImplicit(d int, f Word) *Implicit { return core.NewImplicit(d, f) }

// NewCubeView returns a query backend for Q_d(f): explicit up to maxBuild
// (clamped to core.MaxBuildDim = 30), implicit beyond.
func NewCubeView(d int, f Word, maxBuild int) CubeView { return core.NewView(d, f, maxBuild) }

// Hop is one step of a rank-addressed route trace.
type Hop = network.Hop

// ViewRouter routes over any cube backend and reports rank-addressed
// traces; see examples/implicit for a d = 62 walkthrough.
type ViewRouter = network.ViewRouter

// NewViewRouter builds a rank-addressed router over the backend v.
func NewViewRouter(v CubeView) *ViewRouter { return network.NewViewRouter(v) }

// NewDerouteRouter returns the greedy router with misrouting recovery; see
// Network.EvaluateDeroute.
func NewDerouteRouter(n *Network) *network.DerouteRouter { return network.NewDerouteRouter(n) }

// PathGraph, CycleGraph, StarGraph and GridGraph build the standard guest
// graphs used in dimension experiments.
func PathGraph(n int) *Graph { return graph.Path(n) }

// CycleGraph returns the cycle C_n.
func CycleGraph(n int) *Graph { return graph.Cycle(n) }

// StarGraph returns the star K_{1,n}.
func StarGraph(n int) *Graph { return graph.Star(n) }

// GridGraph returns the p x q grid.
func GridGraph(p, q int) *Graph { return graph.Grid(p, q) }
