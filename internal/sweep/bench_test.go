package sweep

import (
	"context"
	"testing"

	"gfcube/internal/core"
)

// verifyE02 checks a grid result against the paper's Table 1; the sweep
// benchmark must never get faster by getting wrong.
func verifyE02(b *testing.B, cells []core.Cell) {
	b.Helper()
	if len(cells) != len(core.Table1)*9 {
		b.Fatalf("cells: %d, want %d", len(cells), len(core.Table1)*9)
	}
	for _, cell := range cells {
		row, ok := core.Table1Lookup(cell.Rep)
		if !ok {
			b.Fatalf("no Table 1 row for %s", cell.Rep)
		}
		if (row.VerdictFor(cell.D) == core.Isometric) != cell.Isometric {
			b.Fatalf("Table 1 mismatch at %s d=%d", cell.Rep, cell.D)
		}
	}
}

// BenchmarkSweepClassify is the CI regression fixture for the sweep engine:
// the E02 workload (exact classification of every factor class of length
// <= 5 for d = 1..9) on the serial reference path and through the engine at
// 1 and 8 workers. The serial-vs-parallel8 ratio is the engine's speedup;
// on a W-core box it should approach min(W, 8) x.
//
// Single-CPU runners (GOMAXPROCS=1 containers — the PR 2 dev box, small CI
// executors): expect NO parallel speedup there. serial, parallel1 and
// parallel8 should all land within noise of each other, with parallel
// variants paying only the small fan-out/re-sequencing overhead. The
// benchmark-regression gate compares each variant against its own
// baseline, so a single-CPU baseline stays meaningful; just don't read
// the parallel8/serial ratio as the engine's speedup unless the box has
// cores to spare.
func BenchmarkSweepClassify(b *testing.B) {
	spec := GridSpec{MaxLen: 5, MaxD: 9, Method: core.MethodExact}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			verifyE02(b, core.ClassifyAll(5, core.GridOptions{MaxD: 9, Method: core.MethodExact}))
		}
	})
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "parallel1", 8: "parallel8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cells, err := ClassifyGrid(context.Background(), spec, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				verifyE02(b, cells)
			}
		})
	}
}

// BenchmarkSweepSurvey measures the class-granular survey (the gfc-survey
// workload) at length 6 with the critical-pair screen.
func BenchmarkSweepSurvey(b *testing.B) {
	spec := GridSpec{MinLen: 6, MaxLen: 6, MaxD: 10, Method: core.MethodScreen}
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "serial", 8: "parallel8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := Survey(context.Background(), spec, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 20 {
					b.Fatalf("rows: %d", len(rows))
				}
			}
		})
	}
}
