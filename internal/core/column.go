package core

import (
	"sync/atomic"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
)

// Column-cache effectiveness counters, exported on the service's
// /metrics and /stats surfaces. A "reuse" is a cell served off the cached
// column (same-d hit or a single-step extension); a "rebuild" is a cell
// that had to restart the chain from Q_0 (new factor, a dimension jump, or
// a cold builder). New keeps a builder of its own and counts neither.
var (
	columnReuse   atomic.Uint64
	columnRebuild atomic.Uint64
)

// ColumnCounters returns the process-wide column-cache counters.
func ColumnCounters() (reuse, rebuild uint64) {
	return columnReuse.Load(), columnRebuild.Load()
}

// ColumnBuilder constructs the cubes of one grid column Q_0(f), Q_1(f), ...
// incrementally, exploiting the paper's recursive decomposition: the
// vertices of Q_{d+1}(f) are exactly the f-free one-bit extensions of the
// vertices of Q_d(f), and its edges are the edges of Q_d(f) lifted through
// the extension map plus the perfect-matching-style cross layer u·0 ~ u·1
// (the generalization of Hsu's Γ_d = 0Γ_{d-1} + 10Γ_{d-2}). It is the only
// construction algorithm: New runs the same chain from Q_0(f).
//
// Each cached vertex is annotated with the DFA state its word drives the
// factor automaton to, so the step to d+1 is a single O(|V_{d+1}|) filter
// (one delta step per child, drop the dead ones) followed by an
// O(|V|+|E|) edge lift that assembles the new CSR arena directly in
// sorted order — no re-enumeration, no ranking, no edge sort. See
// docs/incremental-build.md for why the emitted order is already sorted.
//
// Advance with the same factor and d equal to the cached dimension or one
// above it reuses the column; anything else is a rebuild, which restarts
// the chain from Q_0(f) and re-seeds the column. Produced cubes own their
// memory; the builder only retains scratch. Not safe for concurrent use:
// one per worker, like Scratch.
type ColumnBuilder struct {
	dfa  *automaton.DFA
	f    bitstr.Word
	cube *Cube

	// states[i] is the DFA state reached by cube.verts[i]; valid only when
	// annotated is true (cubes adopted from a store load are annotated
	// lazily, so a column that never extends pays nothing).
	states    []uint8
	annotated bool

	// Per-extension scratch, reused across steps.
	child0, child1 []int32 // old index -> new index of the 0/1-child, -1 if dead
	statesBuf      []uint8
	csr            *graph.CSRBuilder
}

// NewColumnBuilder returns an empty builder; buffers grow on first use.
func NewColumnBuilder() *ColumnBuilder {
	return &ColumnBuilder{csr: graph.NewCSRBuilder()}
}

// CanAdvance reports whether Advance(d, f) would be served off the cached
// column (a reuse) rather than a rebuild.
func (b *ColumnBuilder) CanAdvance(d int, f bitstr.Word) bool {
	return b.cube != nil && b.f == f && d >= 0 && d <= MaxBuildDim &&
		(d == b.cube.d || d == b.cube.d+1)
}

// Advance returns Q_d(f), incrementally when the request continues the
// cached column and by restarting the chain from Q_0(f) otherwise. It
// panics with CheckBuild's error on invalid arguments. The returned cube
// owns its memory and stays valid across further builder use.
func (b *ColumnBuilder) Advance(d int, f bitstr.Word) *Cube {
	if err := CheckBuild(d, f); err != nil {
		panic(err)
	}
	if b.cube != nil && b.f == f {
		switch d {
		case b.cube.d:
			columnReuse.Add(1)
			return b.cube
		case b.cube.d + 1:
			if !b.annotated {
				b.annotate()
			}
			b.extend()
			b.cube.rk = b.dfa.Ranker(d)
			columnReuse.Add(1)
			return b.cube
		}
	}
	columnRebuild.Add(1)
	b.restart(d, f)
	return b.cube
}

// Adopt seeds the column with an externally produced cube (typically a
// store load), so a following Advance to d or d+1 is incremental. The
// state annotation is recomputed lazily on the first extension.
func (b *ColumnBuilder) Adopt(c *Cube) {
	b.dfa, b.f, b.cube, b.annotated = c.dfa, c.f, c, false
}

// annotate recomputes the DFA state of every cached vertex by replaying
// each word through the automaton: O(|V|·d), paid once per adopted cube
// and only if the column actually extends past it.
func (b *ColumnBuilder) annotate() {
	verts, d := b.cube.verts, b.cube.d
	if cap(b.states) < len(verts) {
		b.states = make([]uint8, len(verts))
	} else {
		b.states = b.states[:len(verts)]
	}
	for i, v := range verts {
		b.states[i] = uint8(b.dfa.StateBits(v, d))
	}
	b.annotated = true
}

// restart re-seeds the column at Q_0(f) — the empty word, which every
// nonempty factor leaves as the single vertex, in the start state — and
// extends it d times. The rank tables of Q_d(f) are built once, up front:
// their vertex count bounds the step scratch of the whole chain, because
// |V(Q_k(f))| is nondecreasing in k (of the two one-bit extensions of an
// f-free word, at most one ends in f).
func (b *ColumnBuilder) restart(d int, f bitstr.Word) {
	if b.dfa == nil || b.f != f {
		b.dfa, b.f = automaton.New(f), f
	}
	rk := b.dfa.Ranker(d)
	if n := int(rk.TotalU64()); cap(b.child0) < n {
		b.child0, b.child1 = make([]int32, 0, n), make([]int32, 0, n)
		b.states, b.statesBuf = make([]uint8, 0, n), make([]uint8, 0, n)
	}
	b.csr.Reset(1)
	b.csr.Seal()
	b.cube = &Cube{d: 0, f: f, dfa: b.dfa, verts: []uint64{0}, g: b.csr.Build()}
	b.states = append(b.states[:0], 0)
	b.annotated = true
	for b.cube.d < d {
		b.extend()
	}
	b.cube.rk = rk
}

// extend steps the cached column from d to d+1.
//
// Vertices: enumerating the old vertices in increasing order and emitting
// the surviving 0-child before the surviving 1-child yields the new
// enumeration already in increasing packed order, because v<<1|c is
// strictly monotone in (v, c).
//
// Edges: an edge of Q_{d+1}(f) either differs in the last position — the
// cross edge u·0 ~ u·1, present iff both children survive — or differs in
// an earlier position, in which case both endpoints share the trailing
// bit c and their length-d prefixes are f-free (f-free words are closed
// under prefixes) and adjacent in Q_d(f): it is the lift {u·c, v·c} of an
// old edge {u, v}. So the new edge set is a filter over the old CSR plus
// a zip over the child maps, never touching the rank tables.
//
// The new CSR is assembled directly in sorted order: with a = child0(u)
// and b = child1(u) = a+1, the sorted neighbor list of a is
// child0(w < u) ++ [b] ++ child0(w > u) over old neighbors w, and the
// list of b is child1(w < u) ++ [a] ++ child1(w > u), since the child
// maps are monotone with child0(u) < child1(u) < child0(u+1). One degree
// pass and one emit pass, no sort, no dedup.
func (b *ColumnBuilder) extend() {
	old := b.cube
	oldVerts := old.verts
	og := old.g
	n := len(oldVerts)
	dead := b.dfa.States() // absorbing state m

	if cap(b.child0) < n {
		b.child0 = make([]int32, n)
		b.child1 = make([]int32, n)
	} else {
		b.child0 = b.child0[:n]
		b.child1 = b.child1[:n]
	}
	child0, child1 := b.child0, b.child1

	// Pass 1: child survival, new indices and new states.
	b.statesBuf = b.statesBuf[:0]
	nn := 0
	for i := 0; i < n; i++ {
		s := int(b.states[i])
		if t := b.dfa.Step(s, 0); t != dead {
			child0[i] = int32(nn)
			b.statesBuf = append(b.statesBuf, uint8(t))
			nn++
		} else {
			child0[i] = -1
		}
		if t := b.dfa.Step(s, 1); t != dead {
			child1[i] = int32(nn)
			b.statesBuf = append(b.statesBuf, uint8(t))
			nn++
		} else {
			child1[i] = -1
		}
	}

	// Pass 2: the new vertex enumeration, exact-size (the cube owns it).
	verts := make([]uint64, nn)
	j := 0
	for i, v := range oldVerts {
		if child0[i] >= 0 {
			verts[j] = v << 1
			j++
		}
		if child1[i] >= 0 {
			verts[j] = v<<1 | 1
			j++
		}
	}

	// Degree pass: cross layer, then each old edge seen once (w > u).
	b.csr.Reset(nn)
	for i := 0; i < n; i++ {
		if child0[i] >= 0 && child1[i] >= 0 {
			b.csr.AddDegree(int(child0[i]), 1)
			b.csr.AddDegree(int(child1[i]), 1)
		}
	}
	for u := 0; u < n; u++ {
		for _, w32 := range og.Neighbors(u) {
			w := int(w32)
			if w <= u {
				continue
			}
			if child0[u] >= 0 && child0[w] >= 0 {
				b.csr.AddDegree(int(child0[u]), 1)
				b.csr.AddDegree(int(child0[w]), 1)
			}
			if child1[u] >= 0 && child1[w] >= 0 {
				b.csr.AddDegree(int(child1[u]), 1)
				b.csr.AddDegree(int(child1[w]), 1)
			}
		}
	}
	b.csr.Seal()

	// Emit pass, per the sorted merge order derived above. adj is sorted,
	// so one scan finds the below/above-u split (no self loops).
	for u := 0; u < n; u++ {
		adj := og.Neighbors(u)
		k := 0
		for k < len(adj) && int(adj[k]) < u {
			k++
		}
		if a := child0[u]; a >= 0 {
			for _, w := range adj[:k] {
				if c0 := child0[w]; c0 >= 0 {
					b.csr.Emit(int(a), int(c0))
				}
			}
			if bb := child1[u]; bb >= 0 {
				b.csr.Emit(int(a), int(bb))
			}
			for _, w := range adj[k:] {
				if c0 := child0[w]; c0 >= 0 {
					b.csr.Emit(int(a), int(c0))
				}
			}
		}
		if bb := child1[u]; bb >= 0 {
			for _, w := range adj[:k] {
				if c1 := child1[w]; c1 >= 0 {
					b.csr.Emit(int(bb), int(c1))
				}
			}
			if a := child0[u]; a >= 0 {
				b.csr.Emit(int(bb), int(a))
			}
			for _, w := range adj[k:] {
				if c1 := child1[w]; c1 >= 0 {
					b.csr.Emit(int(bb), int(c1))
				}
			}
		}
	}
	g := b.csr.Build()

	d := old.d + 1
	b.cube = &Cube{d: d, f: b.f, dfa: b.dfa, verts: verts, g: g}
	b.states, b.statesBuf = b.statesBuf, b.states
	b.annotated = true
}
