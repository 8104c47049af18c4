package core

import (
	"gfcube/internal/bitstr"
)

// CriticalPair is a pair of p-critical words for Q_d(f) in the sense of
// Section 2: vertices b, c of Q_d(f) with Hamming distance p >= 2 such that
// none of the neighbors of b in the hypercube interval I(b,c) belongs to
// Q_d(f), or none of the neighbors of c in I(b,c) does. By Lemma 2.4 the
// existence of such a pair certifies Q_d(f) is not isometric in Q_d.
type CriticalPair struct {
	B, C bitstr.Word
	P    int
}

// FindCriticalPair searches for a p-critical pair and returns the first one
// found (scanning vertices in increasing packed order, positions
// lexicographically). ok is false if no p-critical pair exists.
func (c *Cube) FindCriticalPair(p int) (CriticalPair, bool) {
	pairs := c.findCritical(p, 1)
	if len(pairs) == 0 {
		return CriticalPair{}, false
	}
	return pairs[0], true
}

// CriticalPairs returns up to limit p-critical pairs (all of them if
// limit <= 0).
func (c *Cube) CriticalPairs(p, limit int) []CriticalPair {
	return c.findCritical(p, limit)
}

// findCritical generates each unordered pair {b, c} once, from its smaller
// endpoint b: flipping a set of positions of b yields a larger word
// exactly when the leftmost flipped bit of b is 0, so the first recursion
// level only flips 0 bits. Vertices are scanned in increasing order, so
// the list is ordered by B, then by flipped positions lexicographically.
func (c *Cube) findCritical(p, limit int) []CriticalPair {
	if p < 2 {
		panic("core: critical pairs require p >= 2")
	}
	if p > c.d {
		return nil
	}
	var out []CriticalPair
	var rec func(start, k int, b, diff uint64) bool
	// blockedSide reports whether every neighbor of x in I(x, y) is missing
	// from the cube, where y = x ^ diff. The neighbors of x in the interval
	// are exactly the words x with one differing bit flipped.
	blockedSide := func(x, diff uint64) bool {
		for m := diff; m != 0; m &= m - 1 {
			if _, ok := c.rank(x ^ (m & -m)); ok {
				return false
			}
		}
		return true
	}
	rec = func(start, k int, b, diff uint64) bool {
		if k == p {
			cBits := b ^ diff
			if _, ok := c.rank(cBits); !ok {
				return true
			}
			if blockedSide(b, diff) || blockedSide(cBits, diff) {
				out = append(out, CriticalPair{
					B: bitstr.Word{Bits: b, N: c.d},
					C: bitstr.Word{Bits: cBits, N: c.d},
					P: p,
				})
				if limit > 0 && len(out) >= limit {
					return false
				}
			}
			return true
		}
		for pos := start; pos < c.d; pos++ {
			bit := uint64(1) << uint(c.d-1-pos)
			if k == 0 && b&bit != 0 {
				continue
			}
			if !rec(pos+1, k+1, b, diff|bit) {
				return false
			}
		}
		return true
	}
	for _, v := range c.verts {
		if !rec(0, 0, v, 0) {
			break
		}
	}
	return out
}

// HasCriticalPair reports whether any p-critical pair exists for
// 2 <= p <= maxP.
func (c *Cube) HasCriticalPair(maxP int) (CriticalPair, bool) {
	for p := 2; p <= maxP && p <= c.d; p++ {
		if pair, ok := c.FindCriticalPair(p); ok {
			return pair, true
		}
	}
	return CriticalPair{}, false
}
