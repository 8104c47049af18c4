package sweep

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/graph"
)

// Spec validation errors surface before any work is scheduled.
func TestBadGridSpecs(t *testing.T) {
	ctx := context.Background()
	if _, err := ClassifyGrid(ctx, GridSpec{MinLen: 4, MaxLen: 2, MaxD: 8}, Options{}); err == nil {
		t.Error("MaxLen < MinLen accepted")
	}
	if _, err := ClassifyGrid(ctx, GridSpec{MaxLen: 3, MinD: 9, MaxD: 5}, Options{}); err == nil {
		t.Error("MaxD < MinD accepted")
	}
	if _, err := Survey(ctx, GridSpec{MinLen: 4, MaxLen: 2, MaxD: 8}, Options{}); err == nil {
		t.Error("survey with MaxLen < MinLen accepted")
	}
	if _, err := CountGrid(ctx, 3, 2, 10, Options{}); err == nil {
		t.Error("count grid with maxLen < minLen accepted")
	}
	if _, err := CountGrid(ctx, 1, 2, -1, Options{}); err == nil {
		t.Error("count grid with negative maxD accepted")
	}
	if _, err := FDimGrid(ctx, graph.Path(3), 3, 2, 8, Options{}); err == nil {
		t.Error("fdim grid with maxLen < minLen accepted")
	}
	if _, err := FDimGrid(ctx, graph.Path(3), 1, 2, 0, Options{}); err == nil {
		t.Error("fdim grid with maxD < 1 accepted")
	}
}

// Grids that build explicit cubes reject MaxD past core.MaxBuildDim up
// front instead of panicking inside a worker; DegreeGrid runs on the
// implicit backend and is bounded by bitstr.MaxLen instead.
func TestGridSpecDimensionCaps(t *testing.T) {
	ctx := context.Background()
	past := GridSpec{MaxLen: 1, MaxD: core.MaxBuildDim + 1, Method: core.MethodExact}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"classify", func() error { _, err := ClassifyGrid(ctx, past, Options{}); return err }},
		{"survey", func() error { _, err := Survey(ctx, past, Options{}); return err }},
		{"wiener", func() error { _, err := WienerGrid(ctx, past, Options{}); return err }},
		{"degrees", func() error {
			_, err := DegreeGrid(ctx, GridSpec{MaxLen: 1, MaxD: bitstr.MaxLen + 1}, Options{})
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: over-cap spec accepted", tc.name)
		}
	}
	cells, err := DegreeGrid(ctx, GridSpec{MaxLen: 1, MinD: past.MaxD, MaxD: past.MaxD}, Options{})
	if err != nil {
		t.Fatalf("degrees past the build cap: %v", err)
	}
	if len(cells) != 1 || cells[0].Order != 1 {
		t.Fatalf("degrees past the build cap: %+v, want one single-vertex cell", cells)
	}
}

// Cancelled contexts propagate out of every grid wrapper.
func TestGridWrappersCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Survey(ctx, GridSpec{MaxLen: 4, MaxD: 8}, Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("survey: err = %v", err)
	}
	if _, err := CountGrid(ctx, 1, 4, 50, Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("count: err = %v", err)
	}
	if _, err := FDimGrid(ctx, graph.Path(4), 1, 3, 8, Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("fdim: err = %v", err)
	}
}

// MinD below 1 is normalized rather than rejected, matching core.
func TestCellTasksNormalizesMinD(t *testing.T) {
	a := CellTasks(1, 2, 0, 3)
	b := CellTasks(1, 2, 1, 3)
	if len(a) != len(b) {
		t.Fatalf("minD=0 produced %d tasks, minD=1 produced %d", len(a), len(b))
	}
	for i := range a {
		if a[i].D != b[i].D || a[i].Class != b[i].Class {
			t.Fatalf("task %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Unset (or negative) Workers must default to runtime.GOMAXPROCS(0) —
// "use the machine" — with Buffer following Workers; explicit settings
// win.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if want := runtime.GOMAXPROCS(0); o.Workers != want {
		t.Fatalf("default Workers = %d, want GOMAXPROCS = %d", o.Workers, want)
	}
	if o.Buffer != o.Workers {
		t.Fatalf("default Buffer = %d, want Workers = %d", o.Buffer, o.Workers)
	}
	if o := (Options{Workers: -3}).withDefaults(); o.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative Workers defaulted to %d, want GOMAXPROCS", o.Workers)
	}
	o = Options{Workers: 3, Buffer: 9}.withDefaults()
	if o.Workers != 3 || o.Buffer != 9 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

// A quick-method grid agrees with exact on a slice containing both
// verdicts (exercises the screen-then-confirm path end to end).
func TestClassifyGridQuickMethod(t *testing.T) {
	spec := GridSpec{MinLen: 3, MaxLen: 3, MaxD: 7, Method: core.MethodQuick}
	quick, err := ClassifyGrid(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec.Method = core.MethodExact
	exact, err := ClassifyGrid(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if quick[i].Isometric != exact[i].Isometric {
			t.Errorf("f=%s d=%d: quick %v vs exact %v",
				exact[i].Rep, exact[i].D, quick[i].Isometric, exact[i].Isometric)
		}
	}
}
