package core

import (
	"context"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
)

// Scratch holds the reusable per-worker state for repeated cube
// constructions and isometry checks across a (d, f) grid: the column
// builder's incremental cube cache (automaton, vertex states, edge-lift
// scratch), the isometry criterion's state planes and the MS-BFS engine's
// bitset planes. New(d, f) runs the whole chain from Q_0(f); through a
// warm Scratch a cell that continues the current column is a single step
// whose only allocations are the cube's own retained memory (see
// ColumnBuilder).
//
// A Scratch is not safe for concurrent use; allocate one per goroutine.
// The sweep engine does exactly that, one per worker.
type Scratch struct {
	col *ColumnBuilder
	iso isoDP
	ms  *graph.MSBFS
	cnt automaton.CountScratch

	// Provider, when non-nil, is consulted by Cube before building: a
	// store-backed provider substitutes artifact loads for constructions,
	// which is how grid sweeps warm-start. A load that fails for any
	// reason falls through to the normal build path. Cells that continue
	// the current column skip the provider — the incremental step is
	// cheaper than a load.
	Provider Provider
}

// NewScratch returns an empty scratch area; buffers grow on first use.
func NewScratch() *Scratch {
	return &Scratch{col: NewColumnBuilder()}
}

// Cube is New(d, f) with incremental reuse: cells that continue the
// cached column (same factor, dimension d or d+1 of the cached cube) are
// served by the column builder's O(|V|+|E|) step, and anything else
// restarts the chain from Q_0(f) through recycled buffers, re-seeding the
// column. It panics with CheckBuild's error on invalid arguments, before
// consulting the provider.
// The context bounds provider loads only — cancellation between cells is
// the sweep engine's job, and a pure in-memory build is not interruptible.
// The returned cube owns its memory and remains valid after any further
// use of the scratch.
func (s *Scratch) Cube(ctx context.Context, d int, f bitstr.Word) *Cube {
	if err := CheckBuild(d, f); err != nil {
		panic(err)
	}
	if s.col == nil {
		s.col = NewColumnBuilder()
	}
	if s.Provider != nil && !s.col.CanAdvance(d, f) {
		if c, _, err := s.Provider.Cube(ctx, d, f); err == nil {
			// Seed the column so the next cell of an ascending-d sweep
			// extends this load instead of rebuilding.
			s.col.Adopt(c)
			return c
		}
	}
	return s.col.Advance(d, f)
}

// engine returns the scratch MS-BFS engine retargeted at g.
func (s *Scratch) engine(g *graph.Graph) *graph.MSBFS {
	if s.ms == nil {
		s.ms = graph.NewMSBFS(g)
		return s.ms
	}
	s.ms.Reset(g)
	return s.ms
}

// Count is CountCtx drawing the transfer-matrix DP planes from the
// scratch, so repeated counting cells on one worker stop churning
// big.Int slices (see automaton.CountScratch).
func (s *Scratch) Count(ctx context.Context, d int, f bitstr.Word) (BigCounts, error) {
	return countCtx(ctx, &s.cnt, automaton.New(f), d)
}

// CountSeq is CountSeqCtx through the scratch's DP planes.
func (s *Scratch) CountSeq(ctx context.Context, dmax int, f bitstr.Word) ([]BigCounts, error) {
	return countSeqCtx(ctx, &s.cnt, dmax, f)
}

// Isometric reports whether c is an isometric subgraph of Q_d by the
// vertex criterion alone (see isoDP), with the state planes drawn from the
// scratch. It names no witness, so it never runs MS-BFS.
func (s *Scratch) Isometric(c *Cube) bool {
	ok, _ := s.iso.isometric(context.Background(), c)
	return ok
}

// IsIsometric is Cube.IsIsometric on one goroutine through the scratch: the
// criterion decides, and a negative verdict runs the serial MS-BFS of
// Cube.IsIsometricSerial, with the engine's planes drawn from the scratch,
// to name the violating pair with the smallest (source, vertex) ranks.
// Results are deterministic. Sweeps parallelize across grid cells, one
// scratch per worker, rather than inside one check.
func (s *Scratch) IsIsometric(c *Cube) IsometryResult {
	if s.Isometric(c) {
		return IsometryResult{Isometric: true}
	}
	return isIsometricSerial(c, s.engine(c.g))
}
