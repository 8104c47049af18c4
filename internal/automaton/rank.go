package automaton

import (
	"fmt"
	"math/big"

	"gfcube/internal/bitstr"
)

// Ranker provides constant-memory rank/unrank between the f-free words of
// length d (in increasing packed order) and the integers 0..|V(Q_d(f))|-1.
//
// For f = 11 this is exactly the Zeckendorf addressing Hsu used for the
// Fibonacci cube as an interconnection network: node i corresponds to the
// i-th word of the Fibonacci numeration system. The generalization works for
// any forbidden factor via the counting DP: suffix[s][k] is the number of
// f-free completions of length k starting from automaton state s.
//
// Words are packed values, so d never exceeds bitstr.MaxLen = 62 and every
// count in the table is bounded by 2^d <= 2^62: the whole DP fits in plain
// uint64 arithmetic. Rank, unrank and membership probes are O(d) table
// walks with no allocation; the *big.Int methods are thin wrappers kept for
// callers that mix ranks into arbitrary-precision pipelines. Counting for
// arbitrary d (beyond packed words) stays on the big.Int transfer-matrix
// API (CountVertices and friends).
type Ranker struct {
	dfa *DFA
	d   int
	// suffix is the m x (d+1) completion-count table, flattened row-major:
	// suffix[s*(d+1)+k] is the number of ways to extend a run in live state
	// s by k more symbols without seeing the factor.
	suffix []uint64
	total  uint64
	// shared marks a suffix table adopted zero-copy from a mapped artifact
	// (see LoadRanker): the memory may be read-only, so Reset must
	// reallocate instead of writing into it.
	shared bool
}

// NewRanker prepares rank/unrank tables for words of length d avoiding f.
// It panics if d is outside [0, bitstr.MaxLen]: ranked words are packed
// values, so larger dimensions cannot be addressed.
func NewRanker(f bitstr.Word, d int) *Ranker {
	return New(f).Ranker(d)
}

// Ranker builds rank/unrank tables of dimension d over the automaton,
// sharing the already-built transition tables.
func (a *DFA) Ranker(d int) *Ranker {
	r := new(Ranker)
	r.Reset(a, d)
	return r
}

// Reset rebuilds the tables for automaton a and dimension d in place,
// reusing the suffix-table allocation when it has capacity. A zero Ranker
// is valid input.
func (r *Ranker) Reset(a *DFA, d int) {
	if d < 0 || d > bitstr.MaxLen {
		panic(fmt.Sprintf("automaton: ranker dimension %d out of range [0, %d]", d, bitstr.MaxLen))
	}
	m := a.m
	stride := d + 1
	need := m * stride
	if r.shared {
		// The current table aliases a mapped (possibly read-only) artifact:
		// drop it rather than write through it.
		r.suffix, r.shared = nil, false
	}
	if cap(r.suffix) < need {
		r.suffix = make([]uint64, need)
	} else {
		r.suffix = r.suffix[:need]
	}
	r.dfa, r.d = a, d
	for s := 0; s < m; s++ {
		r.suffix[s*stride] = 1
	}
	for k := 1; k <= d; k++ {
		for s := 0; s < m; s++ {
			var total uint64
			for c := 0; c < 2; c++ {
				if t := a.delta[s][c]; t != m {
					total += r.suffix[t*stride+k-1]
				}
			}
			r.suffix[s*stride+k] = total
		}
	}
	r.total = r.suffix[d] // completions of length d from the start state
}

// D returns the ranker's dimension.
func (r *Ranker) D() int { return r.d }

// TotalU64 returns |V(Q_d(f))|.
func (r *Ranker) TotalU64() uint64 { return r.total }

// Total returns |V(Q_d(f))| as a big.Int.
func (r *Ranker) Total() *big.Int { return new(big.Int).SetUint64(r.total) }

// RankBits returns the index of the word with packed value bits (length d
// implied) in the increasing enumeration of f-free words, and whether the
// word is f-free. This is the allocation-free hot path behind Cube.Rank
// and the vertex check of cube artifact loads.
func (r *Ranker) RankBits(bits uint64) (uint64, bool) {
	m, stride := r.dfa.m, r.d+1
	delta, suffix := r.dfa.delta, r.suffix
	var rank uint64
	s := 0
	for k := r.d - 1; k >= 0; k-- {
		row := &delta[s]
		if bits>>uint(k)&1 == 0 {
			s = row[0]
		} else {
			// All words with 0 at this position (and the same prefix) come
			// first.
			if t0 := row[0]; t0 != m {
				rank += suffix[t0*stride+k]
			}
			s = row[1]
		}
		if s == m {
			return 0, false
		}
	}
	return rank, true
}

// RankU64 returns the index of w in the increasing enumeration of f-free
// words of length d. It returns an error if w has the wrong length or
// contains the factor.
func (r *Ranker) RankU64(w bitstr.Word) (uint64, error) {
	if w.Len() != r.d {
		return 0, fmt.Errorf("automaton: word length %d, ranker dimension %d", w.Len(), r.d)
	}
	rank, ok := r.RankBits(w.Bits)
	if !ok {
		return 0, fmt.Errorf("automaton: word %s contains the factor %s", w, r.dfa.factor)
	}
	return rank, nil
}

// Rank is RankU64 returning a big.Int.
func (r *Ranker) Rank(w bitstr.Word) (*big.Int, error) {
	rank, err := r.RankU64(w)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetUint64(rank), nil
}

// UnrankU64 returns the word of the given index. It returns an error if the
// index is out of range [0, TotalU64).
func (r *Ranker) UnrankU64(idx uint64) (bitstr.Word, error) {
	if idx >= r.total {
		return bitstr.Word{}, fmt.Errorf("automaton: rank %d out of range [0, %d)", idx, r.total)
	}
	m := r.dfa.m
	stride := r.d + 1
	rem := idx
	var bits uint64
	s := 0
	for k := r.d - 1; k >= 0; k-- {
		t0 := r.dfa.delta[s][0]
		var zeroCount uint64
		if t0 != m {
			zeroCount = r.suffix[t0*stride+k]
		}
		if rem < zeroCount {
			s = t0
		} else {
			rem -= zeroCount
			bits |= 1 << uint(k)
			s = r.dfa.delta[s][1]
		}
		if s == m {
			return bitstr.Word{}, fmt.Errorf("automaton: internal unrank error at position %d", r.d-1-k)
		}
	}
	return bitstr.Word{Bits: bits, N: r.d}, nil
}

// Unrank is UnrankU64 for big.Int indices.
func (r *Ranker) Unrank(idx *big.Int) (bitstr.Word, error) {
	if idx.Sign() < 0 || !idx.IsUint64() || idx.Uint64() >= r.total {
		return bitstr.Word{}, fmt.Errorf("automaton: rank %s out of range [0, %d)", idx, r.total)
	}
	return r.UnrankU64(idx.Uint64())
}

// UnrankInt is Unrank for plain int indices.
func (r *Ranker) UnrankInt(idx int) (bitstr.Word, error) {
	if idx < 0 {
		return bitstr.Word{}, fmt.Errorf("automaton: rank %d out of range [0, %d)", idx, r.total)
	}
	return r.UnrankU64(uint64(idx))
}
