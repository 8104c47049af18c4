package core

import (
	"context"
	"math/bits"
	"sync/atomic"

	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
)

// IsometryResult reports the outcome of an exact embeddability check.
type IsometryResult struct {
	Isometric bool
	// For a negative result, U and V are vertices of Q_d(f) whose distance
	// inside the cube exceeds their Hamming distance (or are disconnected).
	U, V bitstr.Word
	// CubeDist is the distance inside Q_d(f) (-1 when disconnected) and
	// HammingDist the distance in the host hypercube.
	CubeDist    int32
	HammingDist int32
}

// IsIsometric reports whether Q_d(f) is an isometric subgraph of Q_d:
// d_{Q_d(f)}(u,v) = d_{Q_d}(u,v) for every pair of vertices (Section 2).
// The verdict comes from the vertex criterion (see isoDP), in
// O(|V|·d·|f|) with no distances. Only a negative verdict runs the MS-BFS
// engine — 64 sources per bitset batch, batches fanned across
// runtime.GOMAXPROCS(0) workers, shedding batches that can no longer
// improve the witness — to name the violating pair.
func (c *Cube) IsIsometric() IsometryResult {
	res, _ := c.IsIsometricCtx(context.Background())
	return res
}

// isoChunk is how many vertices the criterion checks between two looks at
// the context.
const isoChunk = 1024

// isoDP decides isometry by the vertex criterion. Let G = Q_d(f) and
// A(v) = {i : v⊕e_i ∈ G}. G is isometric in Q_d iff every vertex v is the
// only f-free word that agrees with v on the positions in A(v):
//
//   - (⇐) Any other vertex u then differs from v at some i ∈ A(v); step
//     from v to v⊕e_i, one closer to u, and induct on Hamming distance.
//   - (⇒) The first edge of a geodesic from v to u flips a position where
//     u and v differ, and that position is in A(v).
//
// A pair that fails is a p-critical pair of Lemma 2.4 with a blocked side,
// so this is the converse of Lemma 2.4 over every p >= 2. A(v) is the OR of
// v ^ w over v's neighbours w, and the count is one run of the factor
// automaton with the positions in A(v) fixed to v's bits and the others
// free, saturating at 2: O(d·|f|) per vertex. The two state planes are
// the only memory; a Scratch keeps one isoDP so sweep cells do not
// allocate.
type isoDP struct {
	cur, next []uint8
}

// isometric runs the criterion over every vertex of c, looking at ctx
// before each chunk of isoChunk vertices; a cancelled ctx yields its error.
func (p *isoDP) isometric(ctx context.Context, c *Cube) (bool, error) {
	m := c.dfa.States()
	if cap(p.cur) < m {
		p.cur, p.next = make([]uint8, m), make([]uint8, m)
	}
	p.cur, p.next = p.cur[:m], p.next[:m]
	full := uint64(1)<<uint(c.d) - 1
	for lo := 0; lo < len(c.verts); lo += isoChunk {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		for i := lo; i < min(lo+isoChunk, len(c.verts)); i++ {
			v := c.verts[i]
			var fixed uint64
			for _, w := range c.g.Neighbors(i) {
				fixed |= v ^ c.verts[w]
			}
			if fixed != full && !p.unique(c, v, fixed) {
				return false, nil
			}
		}
	}
	return true, nil
}

// unique reports whether v is the only f-free word of length c.d that
// agrees with v on the positions set in fixed (packed, most significant
// bit first, like the words themselves).
func (p *isoDP) unique(c *Cube, v, fixed uint64) bool {
	a, cur, next := c.dfa, p.cur, p.next
	clear(cur)
	cur[0] = 1
	for k := c.d - 1; k >= 0; k-- {
		clear(next)
		lo, hi := uint64(0), uint64(1)
		if fixed>>uint(k)&1 == 1 {
			lo = v >> uint(k) & 1
			hi = lo
		}
		for s, n := range cur {
			if n == 0 {
				continue
			}
			for b := lo; b <= hi; b++ {
				if t := a.Step(s, b); t < len(next) {
					next[t] = min(2, next[t]+n)
				}
			}
		}
		cur, next = next, cur
	}
	total := uint8(0)
	for _, n := range cur {
		total = min(2, total+n)
	}
	return total == 1
}

// noWitness is the atomic witness-key sentinel (no violation found).
const noWitness = ^uint64(0)

// violationIn scans a distance block against Hamming distances and returns
// the first violating (source, vertex) pair in (source rank, vertex rank)
// order, if any. Unreachable vertices (-1) always violate, since distinct
// hypercube vertices are at finite Hamming distance.
func (c *Cube) violationIn(b *graph.DistBlock) (src, v int, bad bool) {
	n := b.N()
	for i, s := range b.Sources {
		row := b.Row(i)
		ws := c.verts[s]
		for v := 0; v < n; v++ {
			if v == int(s) {
				continue
			}
			if row[v] != int32(bits.OnesCount64(ws^c.verts[v])) {
				return int(s), v, true
			}
		}
	}
	return 0, 0, false
}

// IsIsometricCtx is IsIsometric with cooperative cancellation: the context
// error is returned when ctx is done before the criterion finishes, or
// when the witness search dropped a batch because of cancellation — a
// witness found in a truncated sweep may not be the minimal one, so it is
// discarded rather than returned. On a nil error the witness of a
// negative verdict is the violating pair with the lexicographically
// smallest (source, vertex) ranks — identical to the serial check —
// regardless of worker count or scheduling.
func (c *Cube) IsIsometricCtx(ctx context.Context) (IsometryResult, error) {
	var dp isoDP
	if ok, err := dp.isometric(ctx, c); ok || err != nil {
		return IsometryResult{Isometric: ok}, err
	}
	return c.msbfsWitness(ctx)
}

// msbfsWitness finds the lex-min (source, vertex) violating pair of a
// non-isometric cube with the parallel MS-BFS engine; on an isometric
// cube it sweeps every batch and reports Isometric.
func (c *Cube) msbfsWitness(ctx context.Context) (IsometryResult, error) {
	nn := uint64(c.N())
	var best atomic.Uint64
	best.Store(noWitness)
	var truncated atomic.Bool
	opts := graph.MSOptions{
		// A batch whose smallest source rank already exceeds the best
		// witness key cannot improve it; the witness keys of batch b start
		// at b·64·n. This keeps the early-exit cost of non-isometric
		// instances at one or two batches. The sound shed is checked first
		// so `truncated` is set only when cancellation drops a batch that
		// could still have mattered.
		Skip: func(batch int) bool {
			if uint64(batch)*graph.MSBatchSize*nn >= best.Load() {
				return true
			}
			if ctx.Err() != nil {
				truncated.Store(true)
				return true
			}
			return false
		},
	}
	_ = c.g.ForEachSourceBatchPar(nil, opts, func(_ int, b *graph.DistBlock) error {
		if s, v, bad := c.violationIn(b); bad {
			key := uint64(s)*nn + uint64(v)
			for {
				cur := best.Load()
				if key >= cur || best.CompareAndSwap(cur, key) {
					break
				}
			}
		}
		return nil
	})
	if truncated.Load() {
		return IsometryResult{}, ctx.Err()
	}
	if key := best.Load(); key != noWitness {
		s, v := int(key/nn), int(key%nn)
		return IsometryResult{
			Isometric:   false,
			U:           c.Word(s),
			V:           c.Word(v),
			CubeDist:    c.g.Dist(s, v),
			HammingDist: int32(bits.OnesCount64(c.verts[s] ^ c.verts[v])),
		}, nil
	}
	return IsometryResult{Isometric: true}, nil
}

// IsIsometricSerial is the all-pairs definition, single-threaded: MS-BFS
// from every vertex, compared against Hamming distances, with no use of
// the criterion. It is the reference the tests hold the criterion to, and
// its witness is the violating pair with the smallest (source, vertex)
// ranks.
func (c *Cube) IsIsometricSerial() IsometryResult {
	return isIsometricSerial(c, graph.NewMSBFS(c.g))
}

// isIsometricSerial is the exact check over a caller-provided engine:
// batches of 64 consecutive sources in rank order, Hamming comparison
// against every other vertex, first violation (smallest source rank, then
// smallest vertex rank) returned as the witness. Both IsIsometricSerial
// and the witness search of Scratch.IsIsometric run exactly this code.
func isIsometricSerial(c *Cube, e *graph.MSBFS) IsometryResult {
	res := IsometryResult{Isometric: true}
	e.RunAll(func(b *graph.DistBlock) bool {
		s, v, bad := c.violationIn(b)
		if !bad {
			return true
		}
		res = IsometryResult{
			Isometric:   false,
			U:           c.Word(s),
			V:           c.Word(v),
			CubeDist:    b.Row(s - int(b.Sources[0]))[v],
			HammingDist: int32(bits.OnesCount64(c.verts[s] ^ c.verts[v])),
		}
		return false
	})
	return res
}

// IsIsometricQuick is IsIsometric with the witness a reader can check by
// hand: a negative verdict is reported as the first 2- or 3-critical pair
// (Lemma 2.4) when one exists, with CubeDist -2 ("not computed"), and by
// the MS-BFS witness otherwise. The verdict itself is the criterion's, so
// it is exact either way.
func (c *Cube) IsIsometricQuick() IsometryResult {
	res, _ := c.IsIsometricQuickCtx(context.Background())
	return res
}

// IsIsometricQuickCtx is IsIsometricQuick with cooperative cancellation of
// the criterion and of the MS-BFS witness search.
func (c *Cube) IsIsometricQuickCtx(ctx context.Context) (IsometryResult, error) {
	var dp isoDP
	if ok, err := dp.isometric(ctx, c); ok || err != nil {
		return IsometryResult{Isometric: ok}, err
	}
	if res, ok := c.screenWitness(); ok {
		return res, nil
	}
	return c.msbfsWitness(ctx)
}

// screenWitness reports the first 2- or 3-critical pair of c as a negative
// result, with the -2 "not computed" marker for the cube distance.
func (c *Cube) screenWitness() (IsometryResult, bool) {
	pair, ok := c.HasCriticalPair(3)
	if !ok {
		return IsometryResult{}, false
	}
	return IsometryResult{
		U: pair.B, V: pair.C,
		CubeDist: -2, HammingDist: int32(pair.P),
	}, true
}
