package automaton

import (
	"math/big"
	"math/rand"
	"testing"

	"gfcube/internal/bitstr"
)

func TestAvoidsMatchesNaive(t *testing.T) {
	factors := []string{"1", "0", "11", "10", "101", "110", "1010", "1101", "11010", "10110", "111", "1001"}
	for _, fs := range factors {
		f := bitstr.MustParse(fs)
		a := New(f)
		bitstr.ForEach(10, func(w bitstr.Word) bool {
			want := !w.HasFactor(f)
			if got := a.Avoids(w); got != want {
				t.Fatalf("Avoids(%s, f=%s) = %v, want %v", w, fs, got, want)
			}
			return true
		})
	}
}

func TestAvoidsRandomLong(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(7)
		w := bitstr.Word{Bits: rng.Uint64() & (^uint64(0) >> uint(64-n)), N: n}
		f := bitstr.Word{Bits: rng.Uint64() & (^uint64(0) >> uint(64-m)), N: m}
		if got, want := New(f).Avoids(w), !w.HasFactor(f); got != want {
			t.Fatalf("Avoids(%s, f=%s) = %v, want %v", w, f, got, want)
		}
	}
}

func TestNewPanicsOnEmptyFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(empty) did not panic")
		}
	}()
	New(bitstr.Word{})
}

func TestEnumerateMatchesFilter(t *testing.T) {
	for _, fs := range []string{"11", "101", "110", "1010", "11010"} {
		f := bitstr.MustParse(fs)
		a := New(f)
		for d := 0; d <= 9; d++ {
			var want []uint64
			bitstr.ForEach(d, func(w bitstr.Word) bool {
				if !w.HasFactor(f) {
					want = append(want, w.Bits)
				}
				return true
			})
			got := a.AppendVertices(nil, d)
			if len(got) != len(want) {
				t.Fatalf("f=%s d=%d: %d vertices, want %d", fs, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("f=%s d=%d: vertex %d = %d, want %d (order mismatch)", fs, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	a := New(bitstr.MustParse("11"))
	count := 0
	a.Enumerate(8, func(bitstr.Word) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestCountVerticesFibonacci(t *testing.T) {
	// |V(Q_d(11))| = F_{d+2} with F_1 = F_2 = 1 (Fibonacci cube order).
	a := New(bitstr.MustParse("11"))
	fib := []int64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610}
	for d := 0; d <= 12; d++ {
		want := fib[d+1] // F_{d+2} with 0-indexed slice holding F_1..
		if got := a.CountVertices(d); got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("|V(Γ_%d)| = %s, want %d", d, got, want)
		}
	}
}

func TestCountVerticesMatchesEnumeration(t *testing.T) {
	for _, fs := range []string{"1", "11", "10", "101", "110", "111", "1010", "1100", "11010", "10101"} {
		a := New(bitstr.MustParse(fs))
		for d := 0; d <= 11; d++ {
			want := int64(len(a.AppendVertices(nil, d)))
			if got := a.CountVertices(d); got.Cmp(big.NewInt(want)) != 0 {
				t.Errorf("f=%s d=%d: DP count %s, enumeration %d", fs, d, got, want)
			}
		}
	}
}

func TestCountVerticesSeqConsistent(t *testing.T) {
	for _, fs := range []string{"11", "110", "1010"} {
		a := New(bitstr.MustParse(fs))
		seq := a.CountVerticesSeq(20)
		for d := 0; d <= 20; d++ {
			if seq[d].Cmp(a.CountVertices(d)) != 0 {
				t.Errorf("f=%s: seq[%d] = %s != CountVertices = %s", fs, d, seq[d], a.CountVertices(d))
			}
		}
	}
}

// brute-force edge and square counts by enumeration, for cross-checking DPs.
func bruteEdges(f bitstr.Word, d int) int64 {
	a := New(f)
	verts := a.AppendVertices(nil, d)
	inV := make(map[uint64]bool, len(verts))
	for _, v := range verts {
		inV[v] = true
	}
	var edges int64
	for _, v := range verts {
		for i := 0; i < d; i++ {
			u := v ^ (uint64(1) << uint(i))
			if u > v && inV[u] {
				edges++
			}
		}
	}
	return edges
}

func bruteSquares(f bitstr.Word, d int) int64 {
	a := New(f)
	verts := a.AppendVertices(nil, d)
	inV := make(map[uint64]bool, len(verts))
	for _, v := range verts {
		inV[v] = true
	}
	var squares int64
	for _, v := range verts {
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				bi := uint64(1) << uint(i)
				bj := uint64(1) << uint(j)
				// v is the base word with both bits 0.
				if v&bi != 0 || v&bj != 0 {
					continue
				}
				if inV[v|bi] && inV[v|bj] && inV[v|bi|bj] {
					squares++
				}
			}
		}
	}
	return squares
}

func TestCountEdgesMatchesEnumeration(t *testing.T) {
	for _, fs := range []string{"1", "11", "10", "101", "110", "111", "1100", "1010", "11010", "10110"} {
		f := bitstr.MustParse(fs)
		a := New(f)
		for d := 0; d <= 10; d++ {
			want := bruteEdges(f, d)
			if got := a.CountEdges(d); got.Cmp(big.NewInt(want)) != 0 {
				t.Errorf("f=%s d=%d: edge DP %s, enumeration %d", fs, d, got, want)
			}
		}
	}
}

func TestCountSquaresMatchesEnumeration(t *testing.T) {
	for _, fs := range []string{"11", "101", "110", "111", "1100", "1010", "11010"} {
		f := bitstr.MustParse(fs)
		a := New(f)
		for d := 0; d <= 10; d++ {
			want := bruteSquares(f, d)
			if got := a.CountSquares(d); got.Cmp(big.NewInt(want)) != 0 {
				t.Errorf("f=%s d=%d: square DP %s, enumeration %d", fs, d, got, want)
			}
		}
	}
}

func TestCountHypercubeDegenerate(t *testing.T) {
	// For d < |f| the cube is the full hypercube: 2^d vertices, d*2^{d-1}
	// edges, C(d,2)*2^{d-2} squares.
	a := New(bitstr.MustParse("11111"))
	for d := 0; d <= 4; d++ {
		if got := a.CountVertices(d); got.Int64() != 1<<uint(d) {
			t.Errorf("d=%d vertices %s", d, got)
		}
		we := int64(0)
		if d >= 1 {
			we = int64(d) * (1 << uint(d-1))
		}
		if got := a.CountEdges(d); got.Int64() != we {
			t.Errorf("d=%d edges %s want %d", d, got, we)
		}
		ws := int64(0)
		if d >= 2 {
			ws = int64(d*(d-1)/2) * (1 << uint(d-2))
		}
		if got := a.CountSquares(d); got.Int64() != ws {
			t.Errorf("d=%d squares %s want %d", d, got, ws)
		}
	}
}

// TestStateBitsAbsorbing checks the early absorbing-state return on a
// word containing the factor, including one where the factor occurs
// strictly inside the word, and that StateBits agrees with Avoids on
// every short word.
func TestStateBitsAbsorbing(t *testing.T) {
	a := New(bitstr.MustParse("11"))
	if got := a.StateBits(0b0110, 4); got != a.States() {
		t.Fatalf("StateBits(0110) = %d, want absorbing %d", got, a.States())
	}
	if got := a.StateBits(0b0101, 4); got == a.States() {
		t.Fatal("StateBits(0101) hit the absorbing state on an 11-free word")
	}
	for _, fs := range []string{"1", "101", "1100", "11010"} {
		a := New(bitstr.MustParse(fs))
		for d := 0; d <= 9; d++ {
			bitstr.ForEach(d, func(w bitstr.Word) bool {
				if got := a.StateBits(w.Bits, d) < a.States(); got != a.Avoids(w) {
					t.Fatalf("f=%s: StateBits(%s) live = %v, Avoids = %v", fs, w, got, !got)
				}
				return true
			})
		}
	}
}

func TestStepTable(t *testing.T) {
	// Hand-checked automaton for f = 101.
	a := New(bitstr.MustParse("101"))
	// state 0: seen nothing useful. on 1 -> 1, on 0 -> 0.
	if a.Step(0, 1) != 1 || a.Step(0, 0) != 0 {
		t.Error("state 0 transitions wrong")
	}
	// state 1: seen "1". on 0 -> 2, on 1 -> 1.
	if a.Step(1, 0) != 2 || a.Step(1, 1) != 1 {
		t.Error("state 1 transitions wrong")
	}
	// state 2: seen "10". on 1 -> 3 (absorbing), on 0 -> 0.
	if a.Step(2, 1) != 3 || a.Step(2, 0) != 0 {
		t.Error("state 2 transitions wrong")
	}
}

func TestFactorAccessor(t *testing.T) {
	f := bitstr.MustParse("1101")
	a := New(f)
	if a.Factor() != f || a.States() != 4 {
		t.Error("accessors wrong")
	}
}

func BenchmarkEnumerateFibonacciD20(b *testing.B) {
	a := New(bitstr.MustParse("11"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		a.Enumerate(20, func(bitstr.Word) bool { n++; return true })
		if n != 17711 { // F_22
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkCountVerticesD60(b *testing.B) {
	a := New(bitstr.MustParse("11010"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.CountVertices(60)
	}
}

func BenchmarkCountSquaresD40(b *testing.B) {
	a := New(bitstr.MustParse("110"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.CountSquares(40)
	}
}
