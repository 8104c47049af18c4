package automaton

import (
	"math/big"
	"math/rand"
	"testing"

	"gfcube/internal/bitstr"
)

func TestRankerRoundTripSmall(t *testing.T) {
	for _, fs := range []string{"11", "101", "110", "1010", "11010"} {
		f := bitstr.MustParse(fs)
		for d := 0; d <= 10; d++ {
			r := NewRanker(f, d)
			verts := New(f).AppendVertices(nil, d)
			if r.Total().Int64() != int64(len(verts)) {
				t.Fatalf("f=%s d=%d: total %s, enumeration %d", fs, d, r.Total(), len(verts))
			}
			for i, v := range verts {
				w := bitstr.Word{Bits: v, N: d}
				rank, err := r.Rank(w)
				if err != nil {
					t.Fatalf("Rank(%s): %v", w, err)
				}
				if rank.Int64() != int64(i) {
					t.Fatalf("f=%s d=%d: Rank(%s) = %s, want %d", fs, d, w, rank, i)
				}
				back, err := r.UnrankInt(i)
				if err != nil {
					t.Fatalf("Unrank(%d): %v", i, err)
				}
				if back != w {
					t.Fatalf("f=%s d=%d: Unrank(%d) = %s, want %s", fs, d, i, back, w)
				}
			}
		}
	}
}

func TestRankerErrors(t *testing.T) {
	r := NewRanker(bitstr.MustParse("11"), 5)
	if r.D() != 5 {
		t.Errorf("D() = %d, want 5", r.D())
	}
	if _, err := r.Rank(bitstr.MustParse("1100")); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := r.RankU64(bitstr.MustParse("1100")); err == nil {
		t.Error("wrong length accepted by RankU64")
	}
	if _, err := r.Rank(bitstr.MustParse("11000")); err == nil {
		t.Error("factor-containing word accepted")
	}
	if _, err := r.Unrank(big.NewInt(-1)); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := r.UnrankInt(-1); err == nil {
		t.Error("negative int rank accepted")
	}
	if _, err := r.Unrank(r.Total()); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := r.Unrank(new(big.Int).Lsh(big.NewInt(1), 70)); err == nil {
		t.Error("non-uint64 rank accepted")
	}
}

func TestRankerLargeDimension(t *testing.T) {
	// Zeckendorf addressing far beyond explicit enumeration: d = 60.
	r := NewRanker(bitstr.Ones(2), 60)
	// |V(Γ_60)| = F_62.
	wantTotal := "4052739537881"
	if r.Total().String() != wantTotal {
		t.Fatalf("|V(Γ_60)| = %s, want %s", r.Total(), wantTotal)
	}
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		idx := new(big.Int).Rand(rng, r.Total())
		w, err := r.Unrank(idx)
		if err != nil {
			t.Fatal(err)
		}
		if w.HasFactor(bitstr.Ones(2)) {
			t.Fatalf("Unrank produced invalid word %s", w)
		}
		back, err := r.Rank(w)
		if err != nil || back.Cmp(idx) != 0 {
			t.Fatalf("round trip failed at %s", idx)
		}
	}
}

func TestRankerOrderPreserving(t *testing.T) {
	// Unrank is strictly increasing in the index (packed-value order).
	r := NewRanker(bitstr.MustParse("110"), 12)
	total := int(r.Total().Int64())
	prev := bitstr.Word{}
	for i := 0; i < total; i++ {
		w, err := r.UnrankInt(i)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !prev.Less(w) {
			t.Fatalf("order violated at %d: %s then %s", i, prev, w)
		}
		prev = w
	}
}

func TestRankerFibonacciZeckendorf(t *testing.T) {
	// For f = 11 the ranker realizes the Fibonacci (Zeckendorf) numeration:
	// the rank of a word b_1...b_d equals sum over set bits of F_{k+1} where
	// k is the number of positions to the right of the bit.
	r := NewRanker(bitstr.Ones(2), 10)
	fib := []int64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}
	for _, s := range []string{"0000000000", "0000000001", "0100100101", "1010101010"} {
		w := bitstr.MustParse(s)
		want := int64(0)
		for i := 0; i < w.Len(); i++ {
			if w.Bit(i) == 1 {
				k := w.Len() - 1 - i
				want += fib[k+1] // F_{k+2} with F_1 = F_2 = 1 shifted: count of 11-free words of length k ... verified below
			}
		}
		got, err := r.Rank(w)
		if err != nil {
			t.Fatalf("Rank(%s): %v", s, err)
		}
		if got.Int64() != want {
			t.Errorf("Zeckendorf rank of %s = %s, want %d", s, got, want)
		}
	}
}

func TestRankerU64PathMatchesBigAPI(t *testing.T) {
	for _, fs := range []string{"11", "101", "1100"} {
		f := bitstr.MustParse(fs)
		for _, d := range []int{0, 1, 7, 13} {
			r := NewRanker(f, d)
			if r.Total().Uint64() != r.TotalU64() {
				t.Fatalf("f=%s d=%d: Total %s != TotalU64 %d", fs, d, r.Total(), r.TotalU64())
			}
			for i := uint64(0); i < r.TotalU64(); i++ {
				w, err := r.UnrankU64(i)
				if err != nil {
					t.Fatal(err)
				}
				u, err := r.RankU64(w)
				if err != nil || u != i {
					t.Fatalf("RankU64(UnrankU64(%d)) = %d (err %v)", i, u, err)
				}
				bigRank, err := r.Rank(w)
				if err != nil || bigRank.Uint64() != i {
					t.Fatalf("big Rank disagrees at %d: %v (err %v)", i, bigRank, err)
				}
				if j, ok := r.RankBits(w.Bits); !ok || j != i {
					t.Fatalf("RankBits(%s) = %d, %v", w, j, ok)
				}
			}
			if _, err := r.UnrankU64(r.TotalU64()); err == nil {
				t.Fatalf("f=%s d=%d: out-of-range UnrankU64 accepted", fs, d)
			}
		}
	}
}

func TestRankerResetReuse(t *testing.T) {
	// One Ranker value reused across factors and dimensions (the scratch
	// pattern of cube construction) must agree with fresh rankers.
	var r Ranker
	for _, fs := range []string{"11", "1010", "110"} {
		f := bitstr.MustParse(fs)
		a := New(f)
		for _, d := range []int{9, 4, 11} {
			r.Reset(a, d)
			fresh := NewRanker(f, d)
			if r.TotalU64() != fresh.TotalU64() {
				t.Fatalf("f=%s d=%d: reused total %d, fresh %d", fs, d, r.TotalU64(), fresh.TotalU64())
			}
			for i := uint64(0); i < r.TotalU64(); i++ {
				a, err1 := r.UnrankU64(i)
				b, err2 := fresh.UnrankU64(i)
				if err1 != nil || err2 != nil || a != b {
					t.Fatalf("f=%s d=%d i=%d: reused %v/%v, fresh %v/%v", fs, d, i, a, err1, b, err2)
				}
			}
		}
	}
}

func TestRankerDimensionRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRanker accepted d > bitstr.MaxLen")
		}
	}()
	NewRanker(bitstr.Ones(2), bitstr.MaxLen+1)
}

// bigRanker is the pre-uint64 rank/unrank implementation (big.Int DP
// tables, allocating per query), kept as the reference point for the
// old-vs-new benchmarks below and as an independent cross-check.
type bigRanker struct {
	dfa    *DFA
	d      int
	suffix [][]*big.Int
	total  *big.Int
}

func newBigRanker(f bitstr.Word, d int) *bigRanker {
	dfa := New(f)
	m := dfa.m
	suffix := make([][]*big.Int, m)
	for s := range suffix {
		suffix[s] = make([]*big.Int, d+1)
		suffix[s][0] = big.NewInt(1)
	}
	for k := 1; k <= d; k++ {
		for s := 0; s < m; s++ {
			total := new(big.Int)
			for c := 0; c < 2; c++ {
				t := dfa.delta[s][c]
				if t == m {
					continue
				}
				total.Add(total, suffix[t][k-1])
			}
			suffix[s][k] = total
		}
	}
	return &bigRanker{dfa: dfa, d: d, suffix: suffix, total: new(big.Int).Set(suffix[0][d])}
}

func (r *bigRanker) rank(w bitstr.Word) *big.Int {
	rank := new(big.Int)
	s := 0
	for i := 0; i < r.d; i++ {
		bit := w.Bit(i)
		if bit == 1 {
			if t0 := r.dfa.delta[s][0]; t0 != r.dfa.m {
				rank.Add(rank, r.suffix[t0][r.d-1-i])
			}
		}
		s = r.dfa.delta[s][bit]
	}
	return rank
}

func (r *bigRanker) unrank(idx *big.Int) bitstr.Word {
	rem := new(big.Int).Set(idx)
	var bits uint64
	s := 0
	for i := 0; i < r.d; i++ {
		k := r.d - 1 - i
		t0 := r.dfa.delta[s][0]
		zeroCount := new(big.Int)
		if t0 != r.dfa.m {
			zeroCount = r.suffix[t0][k]
		}
		if rem.Cmp(zeroCount) < 0 {
			s = t0
		} else {
			rem.Sub(rem, zeroCount)
			bits |= 1 << uint(k)
			s = r.dfa.delta[s][1]
		}
	}
	return bitstr.Word{Bits: bits, N: r.d}
}

func TestRankerAgainstBigReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, fs := range []string{"11", "110", "10101"} {
		f := bitstr.MustParse(fs)
		fast := NewRanker(f, 60)
		ref := newBigRanker(f, 60)
		if fast.Total().Cmp(ref.total) != 0 {
			t.Fatalf("f=%s: totals %s vs %s", fs, fast.Total(), ref.total)
		}
		for iter := 0; iter < 100; iter++ {
			idx := new(big.Int).Rand(rng, ref.total)
			w, err := fast.Unrank(idx)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.unrank(idx); got != w {
				t.Fatalf("f=%s idx=%s: fast %s, reference %s", fs, idx, w, got)
			}
			if got := ref.rank(w); got.Cmp(idx) != 0 {
				t.Fatalf("f=%s: reference rank(%s) = %s, want %s", fs, w, got, idx)
			}
		}
	}
}

// BenchmarkRanker compares the retired big.Int rank/unrank path ("big")
// with the uint64 fast path ("u64") at d = 60 — the satellite measurement
// for the DFA-rank addressing layer.
func BenchmarkRanker(b *testing.B) {
	f := bitstr.Ones(2)
	fast := NewRanker(f, 60)
	ref := newBigRanker(f, 60)
	idx := new(big.Int).Div(ref.total, big.NewInt(3))
	w, err := fast.Unrank(idx)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rank/big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ref.rank(w).Cmp(idx) != 0 {
				b.Fatal("wrong rank")
			}
		}
	})
	b.Run("rank/u64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r, ok := fast.RankBits(w.Bits); !ok || r != idx.Uint64() {
				b.Fatal("wrong rank")
			}
		}
	})
	b.Run("unrank/big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ref.unrank(idx) != w {
				b.Fatal("wrong word")
			}
		}
	})
	b.Run("unrank/u64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := fast.UnrankU64(idx.Uint64()); err != nil || got != w {
				b.Fatal("wrong word")
			}
		}
	})
}

func BenchmarkRankerUnrankD60(b *testing.B) {
	r := NewRanker(bitstr.Ones(2), 60)
	idx := new(big.Int).Div(r.Total(), big.NewInt(3))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Unrank(idx); err != nil {
			b.Fatal(err)
		}
	}
}
