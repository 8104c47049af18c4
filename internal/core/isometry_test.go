package core

import (
	"context"
	"errors"
	"testing"
)

// maxDExact bounds the exhaustive isometry sweeps; large enough to exercise
// every threshold appearing in Table 1 (the largest is d = 8 for 10101 and
// 11100).
const maxDExact = 10

// TestTable1AgainstExactCheck is the paper's Table 1, reproduced: for every
// row and every dimension up to maxDExact, the exact isometry check on the
// explicitly built Q_d(f) must agree with the table's classification.
func TestTable1AgainstExactCheck(t *testing.T) {
	for _, row := range Table1 {
		f := row.Word()
		for d := 1; d <= maxDExact; d++ {
			want := row.VerdictFor(d)
			res := New(d, f).IsIsometric()
			got := NotIsometric
			if res.Isometric {
				got = Isometric
			}
			if got != want {
				t.Errorf("Table 1 row %s, d=%d: computed %v, table says %v (witness %s-%s)",
					row.Factor, d, got, want, res.U, res.V)
			}
		}
	}
}

// TestTable1CoversAllClasses: Table 1 must contain exactly one row per
// complement/reversal class of factors of length 1..5.
func TestTable1CoversAllClasses(t *testing.T) {
	seen := make(map[string]int)
	for _, row := range Table1 {
		canon := row.Word()
		key := canonKey(canon)
		seen[key]++
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("class %s appears %d times in Table 1", key, n)
		}
	}
	want := map[int]int{1: 1, 2: 2, 3: 3, 4: 6, 5: 10}
	byLen := make(map[int]int)
	for _, row := range Table1 {
		byLen[len(row.Factor)]++
	}
	for l, n := range want {
		if byLen[l] != n {
			t.Errorf("Table 1 has %d rows of length %d, want %d", byLen[l], l, n)
		}
	}
}

func canonKey(f interface{ String() string }) string { return f.String() }

func TestSerialParallelAgree(t *testing.T) {
	for _, row := range Table1 {
		f := row.Word()
		for d := 1; d <= 8; d++ {
			c := New(d, f)
			p := c.IsIsometric()
			s := c.IsIsometricSerial()
			if p.Isometric != s.Isometric {
				t.Errorf("f=%s d=%d: parallel %v, serial %v", row.Factor, d, p.Isometric, s.Isometric)
			}
		}
	}
}

func TestIsometryWitnessIsValid(t *testing.T) {
	// For a negative result the reported pair must really violate isometry.
	c := New(5, w("101")) // not isometric for d >= 4
	res := c.IsIsometric()
	if res.Isometric {
		t.Fatal("Q_5(101) should not be isometric")
	}
	iu, ok1 := c.Rank(res.U)
	iv, ok2 := c.Rank(res.V)
	if !ok1 || !ok2 {
		t.Fatal("witness vertices not in cube")
	}
	if int32(res.HammingDist) != int32(res.U.HammingDistance(res.V)) {
		t.Error("reported Hamming distance wrong")
	}
	if got := c.Dist(iu, iv); got == int32(res.HammingDist) {
		t.Errorf("witness pair has cube distance %d equal to Hamming distance", got)
	}
}

func TestTrivialCubesIsometric(t *testing.T) {
	// Lemma 2.1: for d <= |f| the cube is isometric (it is Q_d or Q_d minus
	// a vertex).
	for _, fs := range []string{"101", "1001", "10101", "110010"} {
		f := w(fs)
		for d := 1; d <= f.Len(); d++ {
			if res := New(d, f).IsIsometric(); !res.Isometric {
				t.Errorf("Lemma 2.1 violated for f=%s d=%d", fs, d)
			}
		}
	}
}

func TestInTextComputerChecks(t *testing.T) {
	// The paper relies on four explicit computer checks; reproduce each.
	cases := []struct {
		f    string
		d    int
		want bool
	}{
		{"1100", 6, true},  // Theorem 3.3(ii), s = 2: "for d = 6, it is checked by computer"
		{"10110", 6, true}, // Table 1: Lemma 2.1 and computer check for d = 6
		{"10101", 6, true}, // Table 1: computer check for d = 6, 7
		{"10101", 7, true},
		{"1100", 7, false}, // complements of the checks: first failing dimensions
		{"10110", 7, false},
		{"10101", 8, false},
	}
	for _, cs := range cases {
		res := New(cs.d, w(cs.f)).IsIsometric()
		if res.Isometric != cs.want {
			t.Errorf("computer check f=%s d=%d: got %v, want %v", cs.f, cs.d, res.Isometric, cs.want)
		}
	}
}

func TestQuickScreenMatchesExact(t *testing.T) {
	// IsIsometricQuick (2/3-critical screening + exact fallback) must agree
	// with the exact check on every factor of length <= 4 and d <= 9.
	for _, row := range Table1 {
		if len(row.Factor) > 4 {
			continue
		}
		f := row.Word()
		for d := 1; d <= 9; d++ {
			c := New(d, f)
			q := c.IsIsometricQuick()
			e := c.IsIsometric()
			if q.Isometric != e.Isometric {
				t.Errorf("f=%s d=%d: quick %v, exact %v", row.Factor, d, q.Isometric, e.Isometric)
			}
		}
	}
}

func TestSingleVertexAndEmptyGraphIsometric(t *testing.T) {
	if res := New(6, w("1")).IsIsometric(); !res.Isometric {
		t.Error("one-vertex graph must be isometric")
	}
}

func TestIsIsometricCtxCancelled(t *testing.T) {
	// A pre-cancelled context must yield the context error and an empty
	// result from both context-aware entry points, on a positive and on a
	// negative cube — never a verdict or a witness, which could be
	// non-minimal when batches were shed by cancellation rather than by the
	// sound early-exit bound. The service's deadline path relies on it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cs := range []struct {
		f string
		d int
	}{{"11", 10}, {"101", 9}} { // Γ_10 is isometric, Q_9(101) is not
		c := New(cs.d, w(cs.f))
		for name, check := range map[string]func(context.Context) (IsometryResult, error){
			"IsIsometricCtx":      c.IsIsometricCtx,
			"IsIsometricQuickCtx": c.IsIsometricQuickCtx,
		} {
			res, err := check(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Q_%d(%s) %s: err %v, want context.Canceled", cs.d, cs.f, name, err)
			}
			if res != (IsometryResult{}) {
				t.Errorf("Q_%d(%s) %s: non-empty result %+v", cs.d, cs.f, name, res)
			}
		}
		// An undisturbed context still reaches the serial witness.
		got, err := c.IsIsometricCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := c.IsIsometricSerial(); got != want {
			t.Errorf("Q_%d(%s): parallel %+v differs from serial %+v", cs.d, cs.f, got, want)
		}
	}
}
