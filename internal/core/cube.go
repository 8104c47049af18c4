// Package core implements the paper's primary contribution: the generalized
// Fibonacci cube Q_d(f), the graph obtained from the d-cube Q_d by removing
// every vertex that contains the binary string f as a factor (Ilić, Klavžar,
// Rho, "Generalized Fibonacci cubes").
//
// The package provides explicit construction of Q_d(f), exact isometric
// embeddability testing (is Q_d(f) an isometric subgraph of Q_d?), p-critical
// word search (Lemma 2.4), median-closure testing (Proposition 6.4), exact
// vertex/edge/square counting for arbitrary d, and the paper's classification
// theory for forbidden factors (Sections 3-5), including Table 1.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
)

// MaxBuildDim is the largest dimension supported by explicit construction:
// the vertex count is at most 2^d and the CSR graph materializes every
// edge. Queries at larger d go through the implicit DFA-rank backend
// (Implicit), which serves the CubeView interface up to bitstr.MaxLen.
const MaxBuildDim = 30

// Cube is an explicitly constructed generalized Fibonacci cube Q_d(f).
type Cube struct {
	d     int
	f     bitstr.Word
	dfa   *automaton.DFA
	rk    *automaton.Ranker // rank tables of (f, d); answers Rank in O(d)
	verts []uint64          // sorted packed values of the f-free words of length d
	g     *graph.Graph
}

// New constructs Q_d(f). The forbidden factor must be nonempty and d must be
// small enough for explicit construction (the vertex count is at most 2^d);
// New panics with CheckBuild's error otherwise.
//
// The cube is built by the paper's recursive decomposition: starting from
// Q_0(f), the single empty word, each of d column steps keeps the f-free
// one-bit extensions of the previous vertices and lifts its edges (see
// ColumnBuilder). New uses a builder of its own, so it is safe for
// concurrent use and leaves the column counters alone. Grid sweeps that
// construct many cubes should go through Scratch.Cube, which keeps the
// column between cells.
func New(d int, f bitstr.Word) *Cube {
	if err := CheckBuild(d, f); err != nil {
		panic(err)
	}
	b := NewColumnBuilder()
	b.restart(d, f)
	return b.cube
}

// CheckBuild validates the arguments of explicit construction: the factor
// must be nonempty and 0 <= d <= MaxBuildDim. New, ColumnBuilder.Advance
// and Scratch.Cube panic with its error, LoadCube returns it, and
// front ends call it to reject bad input before doing any work.
func CheckBuild(d int, f bitstr.Word) error {
	if f.Len() == 0 {
		return errors.New("core: empty forbidden factor")
	}
	if d < 0 || d > MaxBuildDim {
		return fmt.Errorf("core: explicit construction limited to 0 <= d <= %d, got %d", MaxBuildDim, d)
	}
	return nil
}

// Fibonacci returns the Fibonacci cube Γ_d = Q_d(11).
func Fibonacci(d int) *Cube { return New(d, bitstr.Ones(2)) }

// D returns the dimension d.
func (c *Cube) D() int { return c.d }

// Factor returns the forbidden factor f.
func (c *Cube) Factor() bitstr.Word { return c.f }

// N returns the number of vertices |V(Q_d(f))|.
func (c *Cube) N() int { return len(c.verts) }

// M returns the number of edges |E(Q_d(f))|.
func (c *Cube) M() int { return c.g.M() }

// Graph returns the underlying graph; vertex i corresponds to Word(i).
func (c *Cube) Graph() *graph.Graph { return c.g }

// Word returns the binary string of the i-th vertex (in increasing packed
// order).
func (c *Cube) Word(i int) bitstr.Word {
	return bitstr.Word{Bits: c.verts[i], N: c.d}
}

// Words returns all vertex words in increasing packed order.
func (c *Cube) Words() []bitstr.Word {
	out := make([]bitstr.Word, len(c.verts))
	for i := range c.verts {
		out[i] = c.Word(i)
	}
	return out
}

// Rank returns the vertex index of the word w, and whether w is a vertex of
// the cube (i.e. has length d and avoids f).
func (c *Cube) Rank(w bitstr.Word) (int, bool) {
	if w.Len() != c.d {
		return 0, false
	}
	return c.rank(w.Bits)
}

// rank resolves a packed length-d word to its vertex index through the
// DFA rank tables: one O(d) walk over in-cache counting tables instead of
// a binary search over verts (whose log n probes each risk a cache miss on
// large cubes).
func (c *Cube) rank(v uint64) (int, bool) {
	r, ok := c.rk.RankBits(v)
	if !ok {
		return 0, false
	}
	return int(r), true
}

// Contains reports whether the word w is a vertex of the cube.
func (c *Cube) Contains(w bitstr.Word) bool {
	_, ok := c.Rank(w)
	return ok
}

// HammingDist returns the hypercube distance between vertices i and j, which
// is a lower bound for (and, when the cube is isometric, equal to) their
// distance in Q_d(f).
func (c *Cube) HammingDist(i, j int) int {
	return bits.OnesCount64(c.verts[i] ^ c.verts[j])
}

// Dist returns the graph distance between vertices i and j inside Q_d(f),
// or graph.Unreachable if they are in different components.
func (c *Cube) Dist(i, j int) int32 { return c.g.Dist(i, j) }

// DegreeStats returns the minimum and maximum vertex degrees.
func (c *Cube) DegreeStats() (min, max int) {
	return c.g.MinDegree(), c.g.MaxDegree()
}

// Counts holds the order, size and number of squares of a cube.
type Counts struct {
	V, E, S int64
}

// CountsExplicit computes vertex/edge/square counts from the explicit graph.
func (c *Cube) CountsExplicit() Counts {
	return Counts{V: int64(c.N()), E: int64(c.M()), S: int64(c.g.CountSquares())}
}

// DegreeDistribution returns how many vertices have each degree 0..d.
// For Fibonacci cubes this is the observability profile studied in the
// follow-up literature (paper reference [4]).
func (c *Cube) DegreeDistribution() []int {
	out := make([]int, c.d+1)
	for v := 0; v < c.N(); v++ {
		out[c.g.Degree(v)]++
	}
	return out
}
