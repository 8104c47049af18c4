// Package automaton implements the Knuth-Morris-Pratt factor automaton for a
// binary string f, together with transfer-matrix dynamic programs that count,
// exactly and for arbitrary dimension d, the vertices, edges and squares
// (4-cycles) of the generalized Fibonacci cube Q_d(f).
//
// The automaton has states 0..m where m = |f|. State s < m means "the longest
// suffix of the input read so far that is a prefix of f has length s"; state m
// means f has occurred as a factor. Words avoiding f are exactly those whose
// run never reaches state m, which turns vertex enumeration and counting in
// Q_d(f) into walks in a digraph with m states.
package automaton

import (
	"fmt"

	"gfcube/internal/bitstr"
)

// DFA is the factor automaton of a nonempty binary string.
type DFA struct {
	factor bitstr.Word
	m      int
	// delta[s][c] is the state reached from s on input bit c; states 0..m,
	// with m the absorbing "factor seen" state.
	delta [][2]int
}

// New builds the factor automaton of f. It panics if f is empty: the empty
// string is a factor of every word, making Q_d(ε) the empty graph.
func New(f bitstr.Word) *DFA {
	if f.Len() == 0 {
		panic("automaton: empty forbidden factor")
	}
	m := f.Len()
	// KMP failure function: fail[s] = length of the longest proper prefix of
	// f[0:s] that is also a suffix of it.
	fail := make([]int, m+1)
	for s := 2; s <= m; s++ {
		k := fail[s-1]
		for k > 0 && f.Bit(k) != f.Bit(s-1) {
			k = fail[k]
		}
		if f.Bit(k) == f.Bit(s-1) {
			k++
		}
		fail[s] = k
	}
	delta := make([][2]int, m+1)
	for s := 0; s <= m; s++ {
		for c := 0; c < 2; c++ {
			if s == m {
				delta[s][c] = m // absorbing
				continue
			}
			k := s
			for k > 0 && f.Bit(k) != uint64(c) {
				k = fail[k]
			}
			if f.Bit(k) == uint64(c) {
				k++
			}
			delta[s][c] = k
		}
	}
	return &DFA{factor: f, m: m, delta: delta}
}

// Factor returns the forbidden factor the automaton was built from.
func (a *DFA) Factor() bitstr.Word { return a.factor }

// States returns the number of live (non-absorbing) states, m = |f|.
func (a *DFA) States() int { return a.m }

// Step returns the state reached from s on input bit c.
func (a *DFA) Step(s int, c uint64) int { return a.delta[s][c&1] }

// Avoids reports whether w does not contain the factor; it is equivalent to
// !w.HasFactor(f) but runs in a single left-to-right scan.
func (a *DFA) Avoids(w bitstr.Word) bool {
	s := 0
	for i := 0; i < w.Len(); i++ {
		s = a.delta[s][w.Bit(i)]
		if s == a.m {
			return false
		}
	}
	return true
}

// Enumerate calls fn for every word of length d avoiding the factor, in
// increasing packed-value order, pruning the search tree with the automaton.
// It stops early if fn returns false. The visit order matches bitstr.ForEach
// filtered by Avoids, but the cost is proportional to the output, not to 2^d.
func (a *DFA) Enumerate(d int, fn func(bitstr.Word) bool) {
	if d < 0 || d > bitstr.MaxLen {
		panic(fmt.Sprintf("automaton: dimension %d out of range", d))
	}
	var rec func(prefix uint64, pos, state int) bool
	rec = func(prefix uint64, pos, state int) bool {
		if pos == d {
			return fn(bitstr.Word{Bits: prefix, N: d})
		}
		for c := uint64(0); c < 2; c++ {
			next := a.delta[state][c]
			if next == a.m {
				continue
			}
			if !rec(prefix<<1|c, pos+1, next) {
				return false
			}
		}
		return true
	}
	rec(0, 0, 0)
}

// StateBits returns the DFA state after reading the length-d word with
// packed value bits, stopping at the absorbing state m as soon as the
// factor occurs. A return value < m proves the word is f-free.
func (a *DFA) StateBits(bits uint64, d int) int {
	s := 0
	for k := d - 1; k >= 0; k-- {
		s = a.delta[s][bits>>uint(k)&1]
		if s == a.m {
			return s
		}
	}
	return s
}

// AppendVertices appends the packed values of all words of length d avoiding
// the factor to dst, in increasing order, and returns the extended slice.
// These are exactly the vertices of Q_d(f). Passing a recycled dst[:0]
// amortizes the enumeration buffer across repeated calls.
func (a *DFA) AppendVertices(dst []uint64, d int) []uint64 {
	a.Enumerate(d, func(w bitstr.Word) bool {
		dst = append(dst, w.Bits)
		return true
	})
	return dst
}
