package sweep

import (
	"context"
	"fmt"
	"math/big"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/graph"
	"gfcube/internal/isometry"
)

// GridSpec bounds a classification grid: factor lengths MinLen..MaxLen,
// dimensions MinD..MaxD, and the method, which names the witness form of
// negative cells (verdicts do not depend on it; see core.Method).
type GridSpec struct {
	MinLen, MaxLen int
	MinD, MaxD     int
	Method         core.Method
}

// normalized validates sp and fills the MinLen/MinD floors. maxD is the
// largest dimension the grid's cells can be computed at: core.MaxBuildDim
// for grids that build explicit cubes, bitstr.MaxLen for the implicit
// backend.
func (sp GridSpec) normalized(maxD int) (GridSpec, error) {
	if sp.MinLen < 1 {
		sp.MinLen = 1
	}
	if sp.MinD < 1 {
		sp.MinD = 1
	}
	if sp.MaxLen < sp.MinLen {
		return sp, fmt.Errorf("sweep: MaxLen %d < MinLen %d", sp.MaxLen, sp.MinLen)
	}
	if sp.MaxD < sp.MinD {
		return sp, fmt.Errorf("sweep: MaxD %d < MinD %d", sp.MaxD, sp.MinD)
	}
	if sp.MaxD > maxD {
		return sp, fmt.Errorf("sweep: MaxD %d exceeds %d", sp.MaxD, maxD)
	}
	return sp, nil
}

// collect runs the tasks and unwraps the ordered results into their
// workload-specific payload type, failing on the first task error.
func collect[T any](ctx context.Context, tasks []Task, fn Func, opts Options) ([]T, error) {
	results, err := Run(ctx, tasks, fn, opts)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out = append(out, r.Value.(T))
	}
	return out, nil
}

// classifyFn is the per-cell task body of ClassifyGrid.
func classifyFn(spec GridSpec) Func {
	return func(ctx context.Context, s *core.Scratch, t Task) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return core.ClassifyCell(ctx, s, t.Class, t.D, spec.Method), nil
	}
}

// ClassifyGrid evaluates the full (class, d) grid in parallel and returns
// the cells in the same deterministic order as the serial
// core.ClassifyAll: classes in (length, value) order, d ascending. This is
// the E02 workload (Table 1) generalized to arbitrary bounds. Cells build
// explicit cubes, so MaxD is bounded by core.MaxBuildDim.
func ClassifyGrid(ctx context.Context, spec GridSpec, opts Options) ([]core.Cell, error) {
	spec, err := spec.normalized(core.MaxBuildDim)
	if err != nil {
		return nil, err
	}
	tasks := CellTasks(spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD)
	return collect[core.Cell](ctx, tasks, classifyFn(spec), opts)
}

// SurveyRow is the per-class summary of a first-failure survey: the
// smallest dimension at which Q_d(f) stops being isometric in Q_d, or 0
// when no failure was found up to MaxD ("good"), plus the paper's verdict.
type SurveyRow struct {
	Class     core.Class
	FirstFail int
	// Theory is the reason of the paper's classification at MaxD, or "-"
	// when the paper's results do not decide the class.
	Theory string
}

// surveyFn is the per-class task body of Survey: scan for the first
// failing dimension, then attach the paper's verdict. A survey keeps only
// verdicts, so it asks the criterion and never pays for a witness; every
// method yields the same verdict.
func surveyFn(spec GridSpec) Func {
	return func(ctx context.Context, s *core.Scratch, t Task) (any, error) {
		row := SurveyRow{Class: t.Class, Theory: surveyTheory(t.Class, spec.MaxD)}
		start := t.Class.Rep.Len() + 1
		if spec.MinD > start {
			start = spec.MinD
		}
		for d := start; d <= spec.MaxD; d++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if !s.Isometric(s.Cube(ctx, d, t.Class.Rep)) {
				row.FirstFail = d
				break
			}
		}
		return row, nil
	}
}

// surveyTheory is the Theory column of one survey row: the paper's
// classification reason, or "-" when the paper does not decide the class.
func surveyTheory(cl core.Class, maxD int) string {
	if c := core.Classify(cl.Rep, maxD); c.Verdict != core.Unknown {
		return c.Reason
	}
	return "-"
}

// Survey runs the gfc-survey workload: for every canonical class of length
// MinLen..MaxLen, scan d = max(MinD, |f|+1) .. MaxD until the first
// non-isometric dimension (d <= |f| is always isometric by Lemma 2.1, so
// the scan skips it). One task per class; within a task the scan stops at
// the first failure, exactly like the serial survey, so no
// symmetry-redundant or post-failure work is done. MaxD is bounded by
// core.MaxBuildDim.
func Survey(ctx context.Context, spec GridSpec, opts Options) ([]SurveyRow, error) {
	spec, err := spec.normalized(core.MaxBuildDim)
	if err != nil {
		return nil, err
	}
	tasks := ClassTasks(spec.MinLen, spec.MaxLen)
	return collect[SurveyRow](ctx, tasks, surveyFn(spec), opts)
}

// CountRow is the counting sequence of one factor class: exact vertex,
// edge and square counts of Q_d(f) for d = 0..MaxD via the transfer-matrix
// DP (no cube construction, so MaxD may be large).
type CountRow struct {
	Class core.Class
	Seq   []core.BigCounts // index d
}

// CountGrid computes counting sequences for every canonical class of
// length MinLen..MaxLen, one task per class.
func CountGrid(ctx context.Context, minLen, maxLen, maxD int, opts Options) ([]CountRow, error) {
	if maxLen < minLen || maxD < 0 {
		return nil, fmt.Errorf("sweep: bad count grid [%d,%d] x d<=%d", minLen, maxLen, maxD)
	}
	tasks := ClassTasks(minLen, maxLen)
	return collect[CountRow](ctx, tasks, func(ctx context.Context, s *core.Scratch, t Task) (any, error) {
		seq, err := s.CountSeq(ctx, maxD, t.Class.Rep)
		if err != nil {
			return nil, err
		}
		return CountRow{Class: t.Class, Seq: seq}, nil
	}, opts)
}

// DegreeCell is the order and degree profile of one (class, d) grid cell.
type DegreeCell struct {
	Class core.Class
	D     int
	Order int64
	// MinDeg and MaxDeg are the extreme vertex degrees (0 when the cube
	// has a single isolated vertex).
	MinDeg, MaxDeg int
	// Dist[k] is the number of vertices of degree k, k = 0..d — the
	// observability profile of the follow-up literature.
	Dist []int64
}

// DegreeGrid computes order and degree statistics for every (class, d)
// cell on the implicit DFA-rank backend: cells that only need counts and
// degrees never build a graph — no edge arena, no CSR — so per-cell
// memory stays O(|f|·d) plus the d+1 counters, where the explicit path
// materializes every edge. The spec's Method is ignored (there is no
// verdict to decide). Enumeration still visits every vertex, so MaxD
// stays in enumerable range; the hard cap is the implicit backend's
// bitstr.MaxLen.
func DegreeGrid(ctx context.Context, spec GridSpec, opts Options) ([]DegreeCell, error) {
	spec, err := spec.normalized(bitstr.MaxLen)
	if err != nil {
		return nil, err
	}
	tasks := CellTasks(spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD)
	return collect[DegreeCell](ctx, tasks, degreeFn(), opts)
}

// degreeFn is the per-cell task body of DegreeGrid.
func degreeFn() Func {
	return func(ctx context.Context, _ *core.Scratch, t Task) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		im := core.NewImplicit(t.D, t.Class.Rep)
		cell := DegreeCell{Class: t.Class, D: t.D, Order: im.Order(), Dist: im.DegreeDistribution()}
		cell.MinDeg, cell.MaxDeg = -1, 0
		for k, n := range cell.Dist {
			if n == 0 {
				continue
			}
			if cell.MinDeg < 0 {
				cell.MinDeg = k
			}
			cell.MaxDeg = k
		}
		if cell.MinDeg < 0 {
			cell.MinDeg = 0
		}
		return cell, nil
	}
}

// WienerCell pairs, for one (class, d) grid cell, the exact BFS Wiener
// index of Q_d(f) with the closed-form Hamming-distance sum.
type WienerCell struct {
	Class core.Class
	D     int
	Order int64
	// Connected reports whether Q_d(f) is connected; Wiener covers only
	// reachable pairs when it is not.
	Connected bool
	// Wiener is the exact Wiener index (sum of shortest-path distances
	// over unordered pairs) from the MS-BFS sweep.
	Wiener *big.Int
	// WienerHamming is the sum of pairwise Hamming distances from the
	// transfer-matrix DP. It equals Wiener exactly when graph distances
	// coincide with Hamming distances (in particular on isometric cubes)
	// and is strictly smaller on connected non-isometric ones.
	WienerHamming *big.Int
	// Match is Connected && Wiener == WienerHamming — the per-cell
	// cross-check the grid exists for.
	Match bool
	// MeanDist is the mean shortest-path distance over unordered pairs
	// (0 for cells with fewer than two vertices, -1 when disconnected).
	MeanDist float64
}

// WienerGrid computes exact and Hamming Wiener indices for every
// (class, d) cell. Cells build the explicit cube (so MaxD is bounded by
// the build cap) and run the distance sweep on the worker's scratch
// MS-BFS engine, serially per cell — the grid itself is already fanned
// across the pool. The spec's Method is ignored; the Wiener comparison is
// its own verdict.
func WienerGrid(ctx context.Context, spec GridSpec, opts Options) ([]WienerCell, error) {
	spec, err := spec.normalized(core.MaxBuildDim)
	if err != nil {
		return nil, err
	}
	tasks := CellTasks(spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD)
	return collect[WienerCell](ctx, tasks, wienerFn(), opts)
}

// wienerFn is the per-cell task body of WienerGrid.
func wienerFn() Func {
	return func(ctx context.Context, s *core.Scratch, t Task) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := s.Cube(ctx, t.D, t.Class.Rep)
		cell := WienerCell{Class: t.Class, D: t.D, Order: c.Order()}
		cell.Wiener, cell.Connected = s.WienerExact(c)
		cell.WienerHamming = core.WienerHamming(t.D, t.Class.Rep)
		cell.Match = cell.Connected && cell.Wiener.Cmp(cell.WienerHamming) == 0
		switch {
		case !cell.Connected:
			cell.MeanDist = -1
		case c.N() >= 2:
			pairs := float64(c.N()) * float64(c.N()-1) / 2
			w, _ := new(big.Float).SetInt(cell.Wiener).Float64()
			cell.MeanDist = w / pairs
		}
		return cell, nil
	}
}

// FDimRow is the f-dimension of a guest graph under one factor class.
type FDimRow struct {
	Class core.Class
	Dim   int
	Found bool
}

// FDimGrid computes dim_f(g) for every canonical class of length
// MinLen..MaxLen, searching host dimensions up to maxD. One task per
// class.
func FDimGrid(ctx context.Context, g *graph.Graph, minLen, maxLen, maxD int, opts Options) ([]FDimRow, error) {
	if maxLen < minLen || maxD < 1 {
		return nil, fmt.Errorf("sweep: bad fdim grid [%d,%d] x d<=%d", minLen, maxLen, maxD)
	}
	tasks := ClassTasks(minLen, maxLen)
	return collect[FDimRow](ctx, tasks, func(ctx context.Context, s *core.Scratch, t Task) (any, error) {
		res, err := isometry.FDimCtx(ctx, g, t.Class.Rep, maxD)
		if err != nil {
			return nil, err
		}
		return FDimRow{Class: t.Class, Dim: res.Dim, Found: res.Found}, nil
	}, opts)
}
