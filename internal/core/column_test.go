package core

import (
	"bytes"
	"context"
	"testing"

	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
)

// allFactors returns every factor word of length 1..maxLen — the full
// grid, not just canonical representatives, so the equivalence sweep also
// exercises non-canonical columns.
func allFactors(maxLen int) []bitstr.Word {
	var out []bitstr.Word
	for n := 1; n <= maxLen; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			out = append(out, bitstr.Word{Bits: bits, N: n})
		}
	}
	return out
}

// naiveCube builds Q_d(f) straight from the definition, sharing no code
// with the column chain: the vertices are the words of length d without f
// as a factor (bitstr.ForEach + HasFactor, already in increasing packed
// order), and every pair at Hamming distance 1 is an edge, found by
// flipping each bit and looking the result up. graph.Builder sorts the
// CSR. The reference carries only what AppendBinary serializes, so it is
// for comparison, not for queries.
func naiveCube(d int, f bitstr.Word) *Cube {
	var verts []uint64
	bitstr.ForEach(d, func(w bitstr.Word) bool {
		if !w.HasFactor(f) {
			verts = append(verts, w.Bits)
		}
		return true
	})
	index := make(map[uint64]int, len(verts))
	for i, v := range verts {
		index[v] = i
	}
	gb := graph.NewBuilder(len(verts))
	for i, v := range verts {
		for p := 0; p < d; p++ {
			if j, ok := index[v^1<<uint(p)]; ok && j > i {
				gb.AddEdge(i, j)
			}
		}
	}
	return &Cube{d: d, f: f, verts: verts, g: gb.Build()}
}

// sameCube asserts byte-identical serialized form against the naive
// reference: vertex enumeration and CSR graph, the strongest equivalence
// the store's artifact format can express.
func sameCube(t *testing.T, got *Cube, d int, f bitstr.Word) {
	t.Helper()
	if !bytes.Equal(got.AppendBinary(nil), naiveCube(d, f).AppendBinary(nil)) {
		t.Fatalf("Q_%d(%s): built cube differs from the naive reference", d, f)
	}
}

// TestColumnBuilderMatchesNew walks every |f| <= 4 column from d = 0 to
// 12 through one ColumnBuilder per factor and demands byte-identical
// verts + CSR against the naive reference at every step, for the column
// and for New alike.
func TestColumnBuilderMatchesNew(t *testing.T) {
	const maxD = 12
	for _, f := range allFactors(4) {
		b := NewColumnBuilder()
		for d := 0; d <= maxD; d++ {
			if d > 0 && !b.CanAdvance(d, f) {
				t.Fatalf("CanAdvance(%d, %s) = false mid-column", d, f)
			}
			want := naiveCube(d, f).AppendBinary(nil)
			if !bytes.Equal(b.Advance(d, f).AppendBinary(nil), want) {
				t.Fatalf("Q_%d(%s): column cube differs from the naive reference", d, f)
			}
			if !bytes.Equal(New(d, f).AppendBinary(nil), want) {
				t.Fatalf("Q_%d(%s): New differs from the naive reference", d, f)
			}
		}
	}
}

// TestColumnBuilderRebuilds covers the rebuild paths: dimension jumps in
// both directions and a factor switch must restart the chain from Q_0
// (bumping the rebuild counter) and still produce exact cubes, re-seeding
// the column so the next step is incremental again. New, which runs the
// chain on a builder of its own, must move neither counter.
func TestColumnBuilderRebuilds(t *testing.T) {
	f1 := bitstr.MustParse("11")
	f2 := bitstr.MustParse("101")
	b := NewColumnBuilder()
	const (
		rebuild = iota
		reuse
		viaNew
	)
	steps := []struct {
		d    int
		f    bitstr.Word
		want int
	}{
		{5, f1, rebuild},  // cold: rebuild
		{3, f1, rebuild},  // jump down: rebuild
		{9, f1, rebuild},  // jump up: rebuild
		{10, f1, reuse},   // +1: reuse
		{10, f2, rebuild}, // factor switch: rebuild
		{12, f2, viaNew},  // New: no counter moves
		{11, f2, reuse},   // +1: reuse
	}
	for i, st := range steps {
		r0, b0 := ColumnCounters()
		var got *Cube
		if st.want == viaNew {
			got = New(st.d, st.f)
		} else {
			if can := b.CanAdvance(st.d, st.f); can != (st.want == reuse) {
				t.Fatalf("step %d: CanAdvance(%d, %s) = %v, want %v", i, st.d, st.f, can, st.want == reuse)
			}
			got = b.Advance(st.d, st.f)
		}
		sameCube(t, got, st.d, st.f)
		r1, b1 := ColumnCounters()
		switch st.want {
		case rebuild:
			if b1 != b0+1 || r1 != r0 {
				t.Fatalf("step %d: counters moved reuse %d->%d rebuild %d->%d, want a rebuild", i, r0, r1, b0, b1)
			}
		case reuse:
			if r1 != r0+1 || b1 != b0 {
				t.Fatalf("step %d: counters moved reuse %d->%d rebuild %d->%d, want a reuse", i, r0, r1, b0, b1)
			}
		case viaNew:
			if r1 != r0 || b1 != b0 {
				t.Fatalf("step %d: New moved the counters reuse %d->%d rebuild %d->%d", i, r0, r1, b0, b1)
			}
		}
	}
}

// TestColumnBuilderSameDimHit asserts that re-requesting the cached cell
// returns the identical cube without any construction.
func TestColumnBuilderSameDimHit(t *testing.T) {
	f := bitstr.MustParse("110")
	b := NewColumnBuilder()
	c1 := b.Advance(8, f)
	r0, _ := ColumnCounters()
	c2 := b.Advance(8, f)
	r1, _ := ColumnCounters()
	if c1 != c2 {
		t.Fatal("same-cell Advance did not return the cached cube")
	}
	if r1 != r0+1 {
		t.Fatalf("same-cell Advance counted reuse %d -> %d, want +1", r0, r1)
	}
}

// TestColumnBuilderAdopt seeds the column with a cube loaded from the
// naive reference's artifact bytes (the store-load path) and extends it:
// annotation is recomputed lazily and the extension must still be exact.
func TestColumnBuilderAdopt(t *testing.T) {
	f := bitstr.MustParse("1010")
	loaded, err := LoadCube(naiveCube(7, f).AppendBinary(nil), 7, f)
	if err != nil {
		t.Fatal(err)
	}
	b := NewColumnBuilder()
	b.Adopt(loaded)
	if !b.CanAdvance(8, f) {
		t.Fatal("CanAdvance after Adopt = false")
	}
	sameCube(t, b.Advance(8, f), 8, f)
	sameCube(t, b.Advance(9, f), 9, f)
}

// TestScratchCubeColumnPath drives the public Scratch entry point down an
// ascending column and checks exactness plus Rank agreement (Rank now
// runs on the DFA ranker tables rather than binary search).
func TestScratchCubeColumnPath(t *testing.T) {
	f := bitstr.MustParse("111")
	s := NewScratch()
	ctx := context.Background()
	for d := 0; d <= 11; d++ {
		c := s.Cube(ctx, d, f)
		sameCube(t, c, d, f)
		for i := 0; i < c.N(); i++ {
			w := c.Word(i)
			if r, ok := c.Rank(w); !ok || r != i {
				t.Fatalf("d=%d: Rank(%s) = %d/%v, want %d", d, w, r, ok, i)
			}
		}
		if _, ok := c.Rank(bitstr.Ones(d + 1)); ok {
			t.Fatalf("d=%d: Rank accepted a word of the wrong length", d)
		}
		if d >= 3 {
			if _, ok := c.Rank(bitstr.Ones(d)); ok {
				t.Fatalf("d=%d: Rank accepted the all-ones word, which contains %s", d, f)
			}
		}
	}
}

// FuzzColumnBuild drives arbitrary (factor, start dimension, step count)
// columns through the incremental builder and cross-checks every produced
// cube byte-for-byte against the naive reference.
func FuzzColumnBuild(f *testing.F) {
	f.Add(uint64(0b11), 2, 0, 6)
	f.Add(uint64(0b1010), 4, 3, 5)
	f.Add(uint64(0b1), 1, 0, 4)
	f.Fuzz(func(t *testing.T, fb uint64, fn int, d0 int, steps int) {
		if fn < 1 || fn > 4 || d0 < 0 || d0 > 10 || steps < 0 || steps > 6 {
			t.Skip()
		}
		factor := bitstr.Word{Bits: fb & (^uint64(0) >> uint(64-fn)), N: fn}
		b := NewColumnBuilder()
		for d := d0; d <= d0+steps; d++ {
			sameCube(t, b.Advance(d, factor), d, factor)
		}
	})
}
