package automaton

import (
	"testing"

	"gfcube/internal/bitstr"
)

// FuzzAvoidsAgainstNaive drives the DFA with arbitrary factor/word pairs
// and cross-checks the naive bit-window scan.
func FuzzAvoidsAgainstNaive(f *testing.F) {
	f.Add(uint64(0b11), 2, uint64(0b1101), 4)
	f.Add(uint64(0b101), 3, uint64(0b11010), 5)
	f.Fuzz(func(t *testing.T, fb uint64, fn int, wb uint64, wn int) {
		if fn < 1 || fn > 10 || wn < 0 || wn > 30 {
			t.Skip()
		}
		factor := bitstr.Word{Bits: fb & (^uint64(0) >> uint(64-fn)), N: fn}
		var w bitstr.Word
		if wn > 0 {
			w = bitstr.Word{Bits: wb & (^uint64(0) >> uint(64-wn)), N: wn}
		}
		a := New(factor)
		if got, want := a.Avoids(w), !w.HasFactor(factor); got != want {
			t.Fatalf("Avoids(%s, f=%s) = %v, want %v", w, factor, got, want)
		}
	})
}

// FuzzRankerRoundTrip checks rank/unrank inversion for arbitrary factors
// and dimensions, on the uint64 fast path and the big.Int wrappers alike.
func FuzzRankerRoundTrip(f *testing.F) {
	f.Add(uint64(0b11), 2, 8, uint64(5))
	f.Fuzz(func(t *testing.T, fb uint64, fn int, d int, idx uint64) {
		if fn < 1 || fn > 6 || d < 0 || d > 24 {
			t.Skip()
		}
		factor := bitstr.Word{Bits: fb & (^uint64(0) >> uint(64-fn)), N: fn}
		r := NewRanker(factor, d)
		total := r.TotalU64()
		if total == 0 {
			t.Skip() // e.g. factor "0" at d >= 1 leaves ... 1^d only; total >= 1 actually
		}
		if r.Total().Uint64() != total {
			t.Fatalf("TotalU64 %d disagrees with Total %s", total, r.Total())
		}
		i := idx % total
		w, err := r.UnrankInt(int(i))
		if err != nil {
			t.Fatalf("Unrank(%d) with total %d: %v", i, total, err)
		}
		if w64, err := r.UnrankU64(i); err != nil || w64 != w {
			t.Fatalf("UnrankU64(%d) = %v (err %v), wrapper %v", i, w64, err, w)
		}
		back, err := r.Rank(w)
		if err != nil || back.Uint64() != i {
			t.Fatalf("Rank(Unrank(%d)) = %v (err %v)", i, back, err)
		}
		if u, ok := r.RankBits(w.Bits); !ok || u != i {
			t.Fatalf("RankBits(%s) = %d, %v, want %d", w, u, ok, i)
		}
	})
}

// FuzzCountsConsistent checks that the counting DP stays consistent with
// enumeration on arbitrary small instances.
func FuzzCountsConsistent(f *testing.F) {
	f.Add(uint64(0b110), 3, 7)
	f.Fuzz(func(t *testing.T, fb uint64, fn int, d int) {
		if fn < 1 || fn > 6 || d < 0 || d > 12 {
			t.Skip()
		}
		factor := bitstr.Word{Bits: fb & (^uint64(0) >> uint(64-fn)), N: fn}
		a := New(factor)
		if got, want := a.CountVertices(d).Int64(), int64(len(a.AppendVertices(nil, d))); got != want {
			t.Fatalf("f=%s d=%d: DP %d, enumeration %d", factor, d, got, want)
		}
	})
}
