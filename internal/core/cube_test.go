package core

import (
	"reflect"
	"testing"

	"gfcube/internal/bitstr"
	"gfcube/internal/fib"
)

func w(s string) bitstr.Word { return bitstr.MustParse(s) }

func TestFig1Q4_101Structure(t *testing.T) {
	// Figure 1 of the paper shows Q_4(101). Exactly 4 of the 16 words of
	// length 4 contain 101 (1010, 1011, 0101, 1101), leaving 12 vertices.
	c := New(4, w("101"))
	if c.N() != 12 {
		t.Fatalf("|V(Q_4(101))| = %d, want 12", c.N())
	}
	for _, missing := range []string{"1010", "1011", "0101", "1101"} {
		if c.Contains(w(missing)) {
			t.Errorf("%s should not be a vertex", missing)
		}
	}
	for _, present := range []string{"0000", "1111", "1100", "0011", "1001"} {
		if !c.Contains(w(present)) {
			t.Errorf("%s should be a vertex", present)
		}
	}
	// The graph is connected and bipartite (it is a subgraph of Q_4 and the
	// figure shows one component).
	if !c.Graph().IsConnected() {
		t.Error("Q_4(101) should be connected")
	}
	if ok, _ := c.Graph().IsBipartite(); !ok {
		t.Error("Q_4(101) should be bipartite")
	}
}

func TestFibonacciCubeOrder(t *testing.T) {
	// |V(Γ_d)| = F_{d+2}.
	for d := 0; d <= 14; d++ {
		c := Fibonacci(d)
		if uint64(c.N()) != fib.F(d+2) {
			t.Errorf("|V(Γ_%d)| = %d, want %d", d, c.N(), fib.F(d+2))
		}
	}
}

func TestDegenerateDimensions(t *testing.T) {
	// d < |f|: Q_d(f) is the full hypercube.
	c := New(3, w("1111"))
	if c.N() != 8 || c.M() != 12 {
		t.Errorf("Q_3(1111) = (%d, %d), want full Q_3 (8, 12)", c.N(), c.M())
	}
	// d = |f|: hypercube minus one vertex.
	c = New(3, w("111"))
	if c.N() != 7 {
		t.Errorf("Q_3(111) has %d vertices, want 7", c.N())
	}
	// d = 0: the empty word is the single vertex.
	c = New(0, w("11"))
	if c.N() != 1 || c.M() != 0 {
		t.Error("Q_0(f) should be K_1")
	}
	// f = 1: removing every word containing a 1 leaves only 0^d.
	c = New(5, w("1"))
	if c.N() != 1 {
		t.Errorf("Q_5(1) has %d vertices, want 1", c.N())
	}
}

func TestPathCase(t *testing.T) {
	// Q_d(10) is the path P_{d+1} (proof of Theorem 3.3(i)).
	for d := 1; d <= 8; d++ {
		c := New(d, w("10"))
		if c.N() != d+1 || c.M() != d {
			t.Fatalf("Q_%d(10): n=%d m=%d, want path on %d vertices", d, c.N(), c.M(), d+1)
		}
		if got := c.Graph().MaxDegree(); got > 2 {
			t.Fatalf("Q_%d(10) has a vertex of degree %d; not a path", d, got)
		}
		if !c.Graph().IsConnected() {
			t.Fatalf("Q_%d(10) disconnected", d)
		}
	}
}

func TestRankWordRoundTrip(t *testing.T) {
	c := New(7, w("110"))
	for i := 0; i < c.N(); i++ {
		word := c.Word(i)
		j, ok := c.Rank(word)
		if !ok || j != i {
			t.Fatalf("rank round trip failed at %d", i)
		}
	}
	if _, ok := c.Rank(w("1100000")); ok {
		t.Error("Rank accepted a word containing the factor")
	}
	if _, ok := c.Rank(w("000")); ok {
		t.Error("Rank accepted a word of wrong length")
	}
}

func TestWordsSortedAndAvoidFactor(t *testing.T) {
	c := New(8, w("1010"))
	words := c.Words()
	if len(words) != c.N() {
		t.Fatal("Words length mismatch")
	}
	for i, word := range words {
		if word.HasFactor(w("1010")) {
			t.Errorf("vertex %s contains factor", word)
		}
		if i > 0 && !words[i-1].Less(word) {
			t.Error("Words not sorted")
		}
	}
}

func TestEdgesAreHammingOne(t *testing.T) {
	c := New(7, w("101"))
	c.Graph().Edges(func(u, v int) {
		if c.HammingDist(u, v) != 1 {
			t.Errorf("edge {%s, %s} not Hamming-adjacent", c.Word(u), c.Word(v))
		}
	})
}

// Lemma 2.2: Q_d(f) is isomorphic to Q_d(f̄) via complementation.
func TestLemma22ComplementIsomorphism(t *testing.T) {
	for _, fs := range []string{"11", "110", "101", "1100", "11010"} {
		f := w(fs)
		for d := 1; d <= 9; d++ {
			a := New(d, f)
			b := New(d, f.Complement())
			if a.N() != b.N() || a.M() != b.M() {
				t.Fatalf("f=%s d=%d: (%d,%d) vs (%d,%d)", fs, d, a.N(), a.M(), b.N(), b.M())
			}
			// The explicit bijection b -> b̄ maps edges to edges.
			a.Graph().Edges(func(u, v int) {
				cu := a.Word(u).Complement()
				cv := a.Word(v).Complement()
				iu, ok1 := b.Rank(cu)
				iv, ok2 := b.Rank(cv)
				if !ok1 || !ok2 || !b.Graph().HasEdge(iu, iv) {
					t.Fatalf("f=%s d=%d: complement bijection broke edge {%s,%s}", fs, d, a.Word(u), a.Word(v))
				}
			})
			if !reflect.DeepEqual(a.Graph().DegreeSequence(), b.Graph().DegreeSequence()) {
				t.Fatalf("f=%s d=%d: degree sequences differ", fs, d)
			}
		}
	}
}

// Lemma 2.3: Q_d(f) is isomorphic to Q_d(f^R) via reversal.
func TestLemma23ReversalIsomorphism(t *testing.T) {
	for _, fs := range []string{"110", "1100", "11010", "10110"} {
		f := w(fs)
		for d := 1; d <= 9; d++ {
			a := New(d, f)
			b := New(d, f.Reverse())
			if a.N() != b.N() || a.M() != b.M() {
				t.Fatalf("f=%s d=%d: counts differ", fs, d)
			}
			a.Graph().Edges(func(u, v int) {
				ru := a.Word(u).Reverse()
				rv := a.Word(v).Reverse()
				iu, ok1 := b.Rank(ru)
				iv, ok2 := b.Rank(rv)
				if !ok1 || !ok2 || !b.Graph().HasEdge(iu, iv) {
					t.Fatalf("f=%s d=%d: reversal bijection broke an edge", fs, d)
				}
			})
		}
	}
}

func TestCountsExplicitMatchesDP(t *testing.T) {
	for _, fs := range []string{"11", "110", "101", "1100", "1010", "11010"} {
		f := w(fs)
		for d := 0; d <= 10; d++ {
			c := New(d, f)
			explicit := c.CountsExplicit()
			dp := Count(d, f)
			if dp.V.Int64() != explicit.V || dp.E.Int64() != explicit.E || dp.S.Int64() != explicit.S {
				t.Fatalf("f=%s d=%d: DP (%s,%s,%s) vs explicit (%d,%d,%d)",
					fs, d, dp.V, dp.E, dp.S, explicit.V, explicit.E, explicit.S)
			}
		}
	}
}

func TestNewPanics(t *testing.T) {
	assert := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assert("empty factor", func() { New(3, bitstr.Word{}) })
	assert("negative d", func() { New(-1, w("11")) })
	assert("huge d", func() { New(31, w("11")) })
}

// TestCheckBuild pins the one validation rule of explicit construction
// and checks that New panics with, and LoadCube returns, the same error.
func TestCheckBuild(t *testing.T) {
	cases := []struct {
		d    int
		f    bitstr.Word
		want string // "" for valid arguments
	}{
		{0, w("11"), ""},
		{MaxBuildDim, w("0"), ""},
		{5, w("10110"), ""},
		{3, bitstr.Word{}, "core: empty forbidden factor"},
		{-1, bitstr.Word{}, "core: empty forbidden factor"},
		{-1, w("11"), "core: explicit construction limited to 0 <= d <= 30, got -1"},
		{MaxBuildDim + 1, w("11"), "core: explicit construction limited to 0 <= d <= 30, got 31"},
	}
	for _, tc := range cases {
		err := CheckBuild(tc.d, tc.f)
		if tc.want == "" {
			if err != nil {
				t.Errorf("CheckBuild(%d, %q) = %v, want nil", tc.d, tc.f, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("CheckBuild(%d, %q) = %v, want %q", tc.d, tc.f, err, tc.want)
			continue
		}
		if _, lerr := LoadCube(nil, tc.d, tc.f); lerr == nil || lerr.Error() != tc.want {
			t.Errorf("LoadCube(nil, %d, %q) = %v, want %q", tc.d, tc.f, lerr, tc.want)
		}
		func() {
			defer func() {
				if r, ok := recover().(error); !ok || r.Error() != tc.want {
					t.Errorf("New(%d, %q) panicked with %v, want %q", tc.d, tc.f, r, tc.want)
				}
			}()
			New(tc.d, tc.f)
		}()
	}
}

func TestProposition61DegreeAndDiameter(t *testing.T) {
	// For embeddable f (|f| > 1, f != 10, 01), max degree and diameter of
	// Q_d(f) are both d.
	cases := []struct {
		f string
		d int
	}{
		{"11", 6}, {"111", 6}, {"110", 6}, {"1010", 7}, {"11010", 7}, {"1100", 6},
	}
	for _, cs := range cases {
		c := New(cs.d, w(cs.f))
		st := c.Graph().Stats()
		if got := c.Graph().MaxDegree(); got != cs.d {
			t.Errorf("f=%s d=%d: max degree %d, want %d", cs.f, cs.d, got, cs.d)
		}
		if int(st.Diameter) != cs.d {
			t.Errorf("f=%s d=%d: diameter %d, want %d", cs.f, cs.d, st.Diameter, cs.d)
		}
	}
}
