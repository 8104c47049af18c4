package core

import (
	"context"
	"testing"

	"gfcube/internal/bitstr"
)

// A warm scratch must build cubes identical to the cold constructor, and
// earlier cubes must survive later scratch reuse.
func TestScratchCubeMatchesNew(t *testing.T) {
	s := NewScratch()
	type snap struct {
		c    *Cube
		n, m int
	}
	var built []snap
	for _, fs := range []string{"11", "101", "1100", "10101"} {
		f := bitstr.MustParse(fs)
		for d := 1; d <= 9; d++ {
			fresh := New(d, f)
			warm := s.Cube(context.Background(), d, f)
			if warm.N() != fresh.N() || warm.M() != fresh.M() {
				t.Fatalf("Q_%d(%s): scratch %d/%d vs fresh %d/%d vertices/edges",
					d, fs, warm.N(), warm.M(), fresh.N(), fresh.M())
			}
			for i := 0; i < warm.N(); i++ {
				if warm.Word(i) != fresh.Word(i) {
					t.Fatalf("Q_%d(%s): vertex %d differs", d, fs, i)
				}
			}
			built = append(built, snap{warm, warm.N(), warm.M()})
		}
	}
	// All previously built cubes must be untouched by subsequent builds.
	for i, b := range built {
		if b.c.N() != b.n || b.c.M() != b.m {
			t.Fatalf("cube %d mutated after scratch reuse: %d/%d -> %d/%d",
				i, b.n, b.m, b.c.N(), b.c.M())
		}
	}
}

// The criterion-backed entry points agree with the serial all-pairs
// checker, including the deterministic witness: Scratch.IsIsometric and
// Cube.IsIsometric name its lex-min pair, IsIsometricQuick the first
// critical pair of p <= 3 when there is one.
func TestScratchIsIsometricMatchesSerial(t *testing.T) {
	s := NewScratch()
	for _, fs := range []string{"1", "11", "101", "1100", "1001", "10101", "110010"} {
		f := bitstr.MustParse(fs)
		for d := 0; d <= 9; d++ {
			c := New(d, f)
			want := c.IsIsometricSerial()
			if got := s.IsIsometric(c); got != want {
				t.Errorf("Q_%d(%s): scratch %+v vs serial %+v", d, fs, got, want)
			}
			if got := c.IsIsometric(); got != want {
				t.Errorf("Q_%d(%s): parallel %+v vs serial %+v", d, fs, got, want)
			}
			quick := c.IsIsometricQuick()
			if quick.Isometric != want.Isometric {
				t.Errorf("Q_%d(%s): quick %v vs serial %v", d, fs, quick.Isometric, want.Isometric)
			}
			if pair, ok := c.HasCriticalPair(3); ok && (quick.U != pair.B || quick.V != pair.C || quick.CubeDist != -2) {
				t.Errorf("Q_%d(%s): quick witness %+v, first critical pair %+v", d, fs, quick, pair)
			}
		}
	}
}

func TestClassesDedup(t *testing.T) {
	cls := Classes(1, 5)
	if len(cls) != len(Table1) {
		t.Fatalf("classes up to length 5: %d, want %d (Table 1 rows)", len(cls), len(Table1))
	}
	// Class sizes must cover every word of each length exactly once.
	byLen := map[int]int{}
	for _, cl := range cls {
		if !bitstr.IsCanonical(cl.Rep) {
			t.Errorf("representative %s is not canonical", cl.Rep)
		}
		byLen[cl.Rep.Len()] += cl.Size
	}
	for n := 1; n <= 5; n++ {
		if byLen[n] != 1<<uint(n) {
			t.Errorf("length %d class sizes sum to %d, want %d", n, byLen[n], 1<<uint(n))
		}
	}
}

// ClassifyAll at maxLen 5, d <= 9 must reproduce Table 1 (this is the E02
// experiment, deduplicated by symmetry).
func TestClassifyAllMatchesTable1(t *testing.T) {
	cells := ClassifyAll(5, GridOptions{MaxD: 9, Method: MethodExact})
	if len(cells) != len(Table1)*9 {
		t.Fatalf("cells: %d, want %d", len(cells), len(Table1)*9)
	}
	for _, cell := range cells {
		row, ok := Table1Lookup(cell.Rep)
		if !ok {
			t.Fatalf("no Table 1 row for %s", cell.Rep)
		}
		if want := row.VerdictFor(cell.D) == Isometric; cell.Isometric != want {
			t.Errorf("f=%s d=%d: got isometric=%v, Table 1 says %v", cell.Rep, cell.D, cell.Isometric, want)
		}
		if !cell.Isometric && cell.Witness == nil {
			t.Errorf("f=%s d=%d: negative cell without witness", cell.Rep, cell.D)
		}
	}
}

// The three methods agree on the full length <= 4 grid.
func TestClassifyAllMethodsAgree(t *testing.T) {
	exact := ClassifyAll(4, GridOptions{MaxD: 8, Method: MethodExact})
	screen := ClassifyAll(4, GridOptions{MaxD: 8, Method: MethodScreen})
	quick := ClassifyAll(4, GridOptions{MaxD: 8, Method: MethodQuick})
	if len(exact) != len(screen) || len(exact) != len(quick) {
		t.Fatalf("cell counts differ: %d/%d/%d", len(exact), len(screen), len(quick))
	}
	for i := range exact {
		if screen[i].Isometric != exact[i].Isometric || quick[i].Isometric != exact[i].Isometric {
			t.Errorf("f=%s d=%d: exact=%v screen=%v quick=%v", exact[i].Rep, exact[i].D,
				exact[i].Isometric, screen[i].Isometric, quick[i].Isometric)
		}
	}
}
