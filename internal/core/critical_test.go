package core

import (
	"testing"

	"gfcube/internal/bitstr"
)

// Lemma 2.4 direction: whenever a p-critical pair exists, the exact check
// must report non-isometric.
func TestLemma24CriticalImpliesNotIsometric(t *testing.T) {
	for _, row := range Table1 {
		f := row.Word()
		for d := 1; d <= 9; d++ {
			c := New(d, f)
			if pair, ok := c.HasCriticalPair(3); ok {
				if res := c.IsIsometric(); res.Isometric {
					t.Errorf("f=%s d=%d: %d-critical pair (%s, %s) found but cube is isometric",
						row.Factor, d, pair.P, pair.B, pair.C)
				}
			}
		}
	}
}

// Observed converse (Klavžar-Shpectorov): on every tested instance,
// non-isometric implies a 2- or 3-critical pair exists.
func TestNonIsometricHas23CriticalPair(t *testing.T) {
	for _, row := range Table1 {
		f := row.Word()
		for d := 1; d <= 9; d++ {
			c := New(d, f)
			if res := c.IsIsometric(); !res.Isometric {
				if _, ok := c.HasCriticalPair(3); !ok {
					t.Errorf("f=%s d=%d: not isometric but no 2/3-critical pair", row.Factor, d)
				}
			}
		}
	}
}

func TestCriticalPairsAreVerified(t *testing.T) {
	c := New(6, w("101"))
	pairs := c.CriticalPairs(2, 0)
	if len(pairs) == 0 {
		t.Fatal("Q_6(101) should have 2-critical pairs")
	}
	for _, pr := range pairs {
		if !c.IsCriticalPair(pr.B, pr.C) {
			t.Errorf("reported pair (%s, %s) fails verification", pr.B, pr.C)
		}
		if pr.B.HammingDistance(pr.C) != 2 {
			t.Errorf("pair (%s, %s) not at distance 2", pr.B, pr.C)
		}
	}
}

// CriticalPairs honours its limit on every class with |f| <= 5 and
// d <= 10: it returns min(limit, all) pairs, a prefix of the full list,
// which holds each unordered pair once with B < C.
func TestCriticalPairLimit(t *testing.T) {
	for _, cl := range Classes(1, 5) {
		f := cl.Rep
		for d := 2; d <= 10; d++ {
			c := New(d, f)
			for p := 2; p <= 3; p++ {
				all := c.CriticalPairs(p, 0)
				seen := map[CriticalPair]bool{}
				for _, pr := range all {
					if !pr.B.Less(pr.C) || seen[pr] {
						t.Fatalf("Q_%d(%s) p=%d: pair %+v out of order or repeated", d, f, p, pr)
					}
					seen[pr] = true
				}
				for k := 1; k <= 4; k++ {
					got := c.CriticalPairs(p, k)
					if len(got) != min(k, len(all)) {
						t.Fatalf("Q_%d(%s) p=%d: CriticalPairs(limit %d) returned %d of %d",
							d, f, p, k, len(got), len(all))
					}
					for i := range got {
						if got[i] != all[i] {
							t.Fatalf("Q_%d(%s) p=%d limit %d: pair %d is %+v, want %+v",
								d, f, p, k, i, got[i], all[i])
						}
					}
				}
			}
		}
	}
}

// The explicit witness pairs from the paper's proofs must be critical.

func TestWitnessProp32(t *testing.T) {
	// f = 1^r 0^s 1^t, d >= r+s+t+1.
	for _, rst := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {2, 2, 1}, {1, 3, 1}, {3, 1, 1}} {
		r, s, tt := rst[0], rst[1], rst[2]
		f := bitstr.OnesZerosOnes(r, s, tt)
		for d := r + s + tt + 1; d <= r+s+tt+3; d++ {
			c := New(d, f)
			b, cc := WitnessProp32(r, s, tt, d)
			if !c.IsCriticalPair(b, cc) {
				t.Errorf("Prop 3.2 witness (%s, %s) not critical for f=%s d=%d", b, cc, f, d)
			}
		}
	}
}

func TestWitnessThm33Case1(t *testing.T) {
	// f = 1100, d >= 7: 3-critical words.
	f := w("1100")
	for d := 7; d <= 9; d++ {
		c := New(d, f)
		b, cc := WitnessThm33Case1(d)
		if b.HammingDistance(cc) != 3 {
			t.Fatalf("witness distance %d, want 3", b.HammingDistance(cc))
		}
		if !c.IsCriticalPair(b, cc) {
			t.Errorf("Thm 3.3 case 1 witness (%s, %s) not critical for d=%d", b, cc, d)
		}
	}
}

func TestWitnessThm33Case2(t *testing.T) {
	// f = 1^r 0^s with r > 2 or s > 2, d >= 2r+2s-2.
	for _, rs := range [][2]int{{3, 3}, {3, 4}, {4, 3}} {
		r, s := rs[0], rs[1]
		f := bitstr.OnesZeros(r, s)
		d := 2*r + 2*s - 2
		c := New(d, f)
		b, cc := WitnessThm33Case2(r, s, d)
		if !c.IsCriticalPair(b, cc) {
			t.Errorf("Thm 3.3 case 2 witness (%s, %s) not critical for f=%s d=%d", b, cc, f, d)
		}
	}
}

func TestWitnessThm33InnerCase(t *testing.T) {
	// f = 1^2 0^s, s >= 4, d > s+4.
	for _, s := range []int{4, 5} {
		f := bitstr.OnesZeros(2, s)
		for d := s + 5; d <= s+6; d++ {
			c := New(d, f)
			b, cc := WitnessThm33Case1Inner(s, d)
			if b.Len() != d {
				t.Fatalf("inner witness has length %d, want %d", b.Len(), d)
			}
			if !c.IsCriticalPair(b, cc) {
				t.Errorf("Thm 3.3 inner witness (%s, %s) not critical for f=%s d=%d", b, cc, f, d)
			}
		}
	}
}

func TestWitnessProp41(t *testing.T) {
	// f = (10)^s 1, s >= 2, d >= 4s.
	for _, s := range []int{2, 3} {
		f := bitstr.AlternatingOne(s)
		for d := 4 * s; d <= 4*s+1; d++ {
			if d > 12 {
				continue
			}
			c := New(d, f)
			b, cc := WitnessProp41(s, d)
			if !c.IsCriticalPair(b, cc) {
				t.Errorf("Prop 4.1 witness (%s, %s) not critical for f=%s d=%d", b, cc, f, d)
			}
		}
	}
}

func TestWitnessProp42(t *testing.T) {
	// f = (10)^r 1 (10)^s, d >= 2r+2s+3.
	for _, rs := range [][2]int{{1, 1}, {1, 2}, {2, 1}} {
		r, s := rs[0], rs[1]
		f := bitstr.AlternatingMid(r, s)
		d := 2*r + 2*s + 3
		c := New(d, f)
		b, cc := WitnessProp42(r, s, d)
		if !c.IsCriticalPair(b, cc) {
			t.Errorf("Prop 4.2 witness (%s, %s) not critical for f=%s d=%d", b, cc, f, d)
		}
	}
}

func TestIsCriticalPairRejectsNonCritical(t *testing.T) {
	c := Fibonacci(5) // isometric, so no pair should be critical
	words := c.Words()
	for i := 0; i < len(words); i++ {
		for j := i + 1; j < len(words); j++ {
			if c.IsCriticalPair(words[i], words[j]) {
				t.Fatalf("Γ_5 reported critical pair (%s, %s)", words[i], words[j])
			}
		}
	}
}

func TestFindCriticalPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=1 did not panic")
		}
	}()
	New(4, w("11")).FindCriticalPair(1)
}
