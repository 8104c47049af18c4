package core

import (
	"context"
	"fmt"

	"gfcube/internal/bitstr"
)

// Method selects how a grid cell — one (f, d) pair — reports its witness.
// Every method decides the cell by the same proven isometry criterion
// (see Scratch.Isometric), so verdicts never depend on the method; the
// names stay because they are part of ledger specs, the HTTP API and the
// CLIs.
type Method int

const (
	// MethodExact reports a negative cell with the violating pair of the
	// MS-BFS distance sweep (the definition in Section 2): the pair with
	// the smallest (source, vertex) ranks, with its cube distance.
	MethodExact Method = iota
	// MethodScreen reports a negative cell with its first 2- or 3-critical
	// pair (Lemma 2.4), cube distance -2 ("not computed"), and falls back
	// to the MS-BFS witness when no such pair exists.
	MethodScreen
	// MethodQuick is MethodScreen; it is kept as a separate name because
	// specs and requests already use it.
	MethodQuick
)

func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodScreen:
		return "screen"
	case MethodQuick:
		return "quick"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts "exact", "screen" or "quick" into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "exact":
		return MethodExact, nil
	case "screen":
		return MethodScreen, nil
	case "quick":
		return MethodQuick, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q (want exact|screen|quick)", s)
	}
}

// Class is one equivalence class of forbidden factors under complementation
// and reversal. Q_d(f) is isomorphic for all members of a class (Lemmas 2.2
// and 2.3), so grids are swept one representative per class — at most 1/4
// of the naive factor-by-factor work.
type Class struct {
	Rep  bitstr.Word // canonical representative (least in (length, value) order)
	Size int         // number of distinct words in the class: 1, 2 or 4
}

// ClassOf returns the class of f.
func ClassOf(f bitstr.Word) Class {
	rep := bitstr.CanonicalRepresentative(f)
	distinct := map[bitstr.Word]bool{rep: true}
	for _, v := range []bitstr.Word{rep.Complement(), rep.Reverse(), rep.Complement().Reverse()} {
		distinct[v] = true
	}
	return Class{Rep: rep, Size: len(distinct)}
}

// Classes returns the canonical classes of every factor length in
// [minLen, maxLen], shortest first, representatives in increasing packed
// value within a length. This is the deterministic grid order used by
// ClassifyAll and by the sweep engine.
func Classes(minLen, maxLen int) []Class {
	if minLen < 1 {
		minLen = 1
	}
	var out []Class
	for n := minLen; n <= maxLen; n++ {
		for _, rep := range bitstr.CanonicalOfLen(n) {
			out = append(out, ClassOf(rep))
		}
	}
	return out
}

// Cell is the decided classification of one (class, d) grid cell.
type Cell struct {
	Class
	D         int
	Isometric bool
	// Witness is the violating vertex pair of a negative verdict, in the
	// form the method names; nil for positive verdicts.
	Witness *IsometryResult
}

// ClassifyCell decides one grid cell by the isometry criterion, drawing
// all construction, criterion and BFS buffers from the scratch; only a
// negative cell pays for the witness its method names. The context bounds
// the scratch's provider loads; see Scratch.Cube.
func ClassifyCell(ctx context.Context, s *Scratch, cl Class, d int, m Method) Cell {
	c := s.Cube(ctx, d, cl.Rep)
	cell := Cell{Class: cl, D: d}
	if cell.Isometric = s.Isometric(c); cell.Isometric {
		return cell
	}
	res, ok := IsometryResult{}, false
	if m != MethodExact {
		res, ok = c.screenWitness()
	}
	if !ok {
		res = isIsometricSerial(c, s.engine(c.g))
	}
	cell.Witness = &res
	return cell
}

// GridOptions bounds a classification grid. The zero value of MinLen and
// MinD defaults to 1; MaxD must be positive.
type GridOptions struct {
	MinLen int    // smallest factor length (default 1)
	MinD   int    // smallest dimension (default 1)
	MaxD   int    // largest dimension, inclusive
	Method Method // how each cell is decided
}

// ClassifyAll classifies the full (d, f) grid up to factor length maxLen —
// the Table 1 computation, extended to arbitrary bounds — deduplicated by
// the complement/reversal symmetry: one column of cells per canonical
// class, dimensions MinD..MaxD. Cells appear in deterministic order:
// classes as returned by Classes, d ascending within a class.
//
// ClassifyAll is the serial reference; the sweep package fans the same
// cells across a worker pool and must produce an identical slice.
func ClassifyAll(maxLen int, opts GridOptions) []Cell {
	minLen := opts.MinLen
	if minLen < 1 {
		minLen = 1
	}
	minD := opts.MinD
	if minD < 1 {
		minD = 1
	}
	if opts.MaxD < minD {
		panic(fmt.Sprintf("core: ClassifyAll needs MaxD >= %d, got %d", minD, opts.MaxD))
	}
	s := NewScratch()
	cls := Classes(minLen, maxLen)
	out := make([]Cell, 0, len(cls)*(opts.MaxD-minD+1))
	for _, cl := range cls {
		for d := minD; d <= opts.MaxD; d++ {
			out = append(out, ClassifyCell(context.Background(), s, cl, d, opts.Method))
		}
	}
	return out
}
