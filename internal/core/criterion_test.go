package core

import (
	"context"
	"testing"

	"gfcube/internal/bitstr"
)

// definitionCell is a grid cell as decided by the definition alone: the
// all-pairs MS-BFS verdict and witness res, and for the screen methods the
// first 2- or 3-critical pair of a negative cell. A positive cell has no
// critical pair (Lemma 2.4), so this is also how the p <= 3 screen and its
// MS-BFS confirmation decided every cell before the criterion.
func definitionCell(c *Cube, cl Class, m Method, res IsometryResult) Cell {
	cell := Cell{Class: cl, D: c.D()}
	if cell.Isometric = res.Isometric; cell.Isometric {
		return cell
	}
	if m != MethodExact {
		pair, ok := c.HasCriticalPair(3)
		if !ok {
			// The screen alone would have read this cell as isometric.
			cell.Isometric = true
			return cell
		}
		res = IsometryResult{U: pair.B, V: pair.C, CubeDist: -2, HammingDist: int32(pair.P)}
	}
	cell.Witness = &res
	return cell
}

// The criterion agrees with the all-pairs MS-BFS definition on the census
// grid — every class with |f| <= 5 at d <= 13 and every length-6 class at
// d <= 12 — and ClassifyCell's verdicts and witnesses under all three
// methods equal the definition-level cells.
func TestCriterionMatchesDefinition(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive census")
	}
	s := NewScratch()
	cells, negative := 0, 0
	check := func(cl Class, d int) {
		cells++
		c := New(d, cl.Rep)
		serial := c.IsIsometricSerial()
		if !serial.Isometric {
			negative++
		}
		if got := s.Isometric(c); got != serial.Isometric {
			t.Errorf("Q_%d(%s): criterion %v, definition %v", d, cl.Rep, got, serial.Isometric)
		}
		for _, m := range []Method{MethodExact, MethodScreen, MethodQuick} {
			got := ClassifyCell(context.Background(), s, cl, d, m)
			want := definitionCell(c, cl, m, serial)
			if got.Isometric != want.Isometric || (got.Witness == nil) != (want.Witness == nil) ||
				(got.Witness != nil && *got.Witness != *want.Witness) {
				t.Errorf("Q_%d(%s) %s: ClassifyCell %+v %+v, definition %+v %+v",
					d, cl.Rep, m, got.Isometric, got.Witness, want.Isometric, want.Witness)
			}
		}
	}
	for _, g := range []struct{ minLen, maxLen, maxD int }{{1, 5, 13}, {6, 6, 12}} {
		for _, cl := range Classes(g.minLen, g.maxLen) {
			for d := 1; d <= g.maxD; d++ {
				check(cl, d)
			}
		}
	}
	if cells != 22*13+20*12 || negative == 0 {
		t.Fatalf("grid: %d cells, %d negative", cells, negative)
	}
}

// FuzzIsometryCriterion compares the criterion with the all-pairs MS-BFS
// definition on random (f, d) with 1 <= |f| <= 6 and d <= 12.
func FuzzIsometryCriterion(f *testing.F) {
	f.Add(uint64(0b101), 3, 9)
	f.Add(uint64(0b1100), 4, 7)
	f.Add(uint64(0b001101), 6, 12)
	f.Fuzz(func(t *testing.T, fb uint64, fn, d int) {
		if fn < 1 || fn > 6 || d < 0 || d > 12 {
			t.Skip()
		}
		factor := bitstr.Word{Bits: fb & (1<<uint(fn) - 1), N: fn}
		c := New(d, factor)
		if got, want := NewScratch().Isometric(c), c.IsIsometricSerial().Isometric; got != want {
			t.Fatalf("Q_%d(%s): criterion %v, definition %v", d, factor, got, want)
		}
	})
}
