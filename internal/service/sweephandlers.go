package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"gfcube/internal/core"
	"gfcube/internal/sweep"
)

// Batch ("sweep") endpoints: whole (d, f)-grid computations fanned across
// the sweep engine's worker pool. A sweep occupies one slot of the
// service's bounded job pool (so concurrent sweeps exert back-pressure like
// any heavy request) and parallelizes internally with its own workers;
// results are cached and singleflighted like every other endpoint, so a
// herd of clients asking for the same grid computes it once.

// maxSweepWorkers caps the per-request parallelism knob.
const maxSweepWorkers = 32

// parseSweepGrid parses the shared grid parameters of the sweep endpoints.
func (s *Server) parseSweepGrid(r *http.Request, maxLenCap, maxDCap int) (sweep.GridSpec, error) {
	var spec sweep.GridSpec
	maxLen, err := parseIntParam(r, "maxlen", 5, 1, maxLenCap)
	if err != nil {
		return spec, err
	}
	minLen, err := parseIntParam(r, "minlen", 1, 1, maxLen)
	if err != nil {
		return spec, err
	}
	maxD, err := parseIntParam(r, "maxd", 9, 1, maxDCap)
	if err != nil {
		return spec, err
	}
	minD, err := parseIntParam(r, "mind", 1, 1, maxD)
	if err != nil {
		return spec, err
	}
	method := core.MethodExact
	if raw := r.URL.Query().Get("method"); raw != "" {
		method, err = core.ParseMethod(raw)
		if err != nil {
			return spec, badRequest("%v", err)
		}
	}
	spec = sweep.GridSpec{MinLen: minLen, MaxLen: maxLen, MinD: minD, MaxD: maxD, Method: method}
	return spec, nil
}

// parseWorkers parses the optional workers parameter (0 = GOMAXPROCS,
// subject to the same cap as explicit values).
func parseWorkers(r *http.Request) (int, error) {
	w, err := parseIntParam(r, "workers", 0, 0, maxSweepWorkers)
	if err != nil {
		return 0, err
	}
	if w == 0 {
		if w = runtime.GOMAXPROCS(0); w > maxSweepWorkers {
			w = maxSweepWorkers
		}
	}
	return w, nil
}

func sweepCellJSON(c core.Cell) SweepCell {
	out := SweepCell{
		Factor:    c.Rep.String(),
		ClassSize: c.Size,
		D:         c.D,
		Isometric: c.Isometric,
	}
	if c.Witness != nil {
		out.U = c.Witness.U.String()
		out.V = c.Witness.V.String()
		out.CubeDist = c.Witness.CubeDist
		out.HammingDist = c.Witness.HammingDist
	}
	return out
}

// handleSweepClassify serves the full classification grid — the Table 1
// computation generalized to arbitrary bounds, deduplicated by the
// complement/reversal symmetry. With stream=true the cells are written as
// NDJSON in deterministic grid order as the engine emits them, bypassing
// the cache.
func (s *Server) handleSweepClassify(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	// Exact cell checks build Q_d(f) explicitly: keep d within the build cap
	// and factor length moderate (the class count doubles per length step).
	spec, err := s.parseSweepGrid(r, 8, min(s.cfg.MaxBuildDim, 14))
	if err != nil {
		return err
	}
	workers, err := parseWorkers(r)
	if err != nil {
		return err
	}
	if r.URL.Query().Get("stream") == "true" {
		return s.streamSweepClassify(w, r, spec, workers)
	}
	key := fmt.Sprintf("sweep/classify|%d|%d|%d|%d|%s", spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD, spec.Method)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		cells, err := sweep.ClassifyGrid(ctx, spec, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		resp := SweepClassifyResponse{
			MinLen: spec.MinLen, MaxLen: spec.MaxLen,
			MinD: spec.MinD, MaxD: spec.MaxD,
			Method: spec.Method.String(),
			Cells:  make([]SweepCell, 0, len(cells)),
		}
		for _, c := range cells {
			resp.Cells = append(resp.Cells, sweepCellJSON(c))
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SweepClassifyResponse)
	resp.Workers = workers
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// streamSweepClassify writes one NDJSON line per grid cell, flushing as
// results arrive (in deterministic grid order). The sweep still runs under
// a pool slot and the per-job timeout.
func (s *Server) streamSweepClassify(w http.ResponseWriter, r *http.Request, spec sweep.GridSpec, workers int) error {
	tasks := sweep.CellTasks(spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD)
	_, err := s.pool.Run(r.Context(), func(ctx context.Context) (any, error) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		results := sweep.Stream(ctx, tasks, func(ctx context.Context, sc *core.Scratch, t sweep.Task) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return core.ClassifyCell(ctx, sc, t.Class, t.D, spec.Method), nil
		}, sweep.Options{Workers: workers})
		for res := range results {
			if res.Err != nil {
				return nil, res.Err
			}
			if err := enc.Encode(sweepCellJSON(res.Value.(core.Cell))); err != nil {
				return nil, err
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return nil, ctx.Err()
	})
	if err != nil && errors.Is(err, ErrPoolSaturated) {
		return err // no bytes written yet: the client gets a proper 503
	}
	if err != nil {
		// Headers are already out, so the status cannot change; instead the
		// stream ends with a terminal error record carrying the same stable
		// code the v1 envelope would have used. Consumers distinguish a
		// complete sweep (all cell lines, no error line) from a failed one
		// (trailing {"error": ...} line) and from a torn transport
		// (truncated body, no error line).
		writeStreamError(w, err)
	}
	return nil
}

// writeStreamError appends the terminal NDJSON error record of a failed
// stream: an ErrorResponse envelope as the final line.
func writeStreamError(w http.ResponseWriter, err error) {
	_, code, retryAfterMs := classifyError(err)
	enc := json.NewEncoder(w)
	_ = enc.Encode(ErrorResponse{Error: ErrorBody{
		Code:         code,
		Message:      err.Error(),
		RetryAfterMs: retryAfterMs,
	}})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleSweepSurvey serves the first-failure survey: for each factor class,
// the smallest d at which Q_d(f) stops being isometric (0 = good up to
// maxd), with the per-dimension histogram reported by gfc-survey.
func (s *Server) handleSweepSurvey(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	spec, err := s.parseSweepGrid(r, 8, min(s.cfg.MaxBuildDim, 14))
	if err != nil {
		return err
	}
	workers, err := parseWorkers(r)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("sweep/survey|%d|%d|%d|%d|%s", spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD, spec.Method)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		rows, err := sweep.Survey(ctx, spec, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		resp := SweepSurveyResponse{
			MinLen: spec.MinLen, MaxLen: spec.MaxLen, MaxD: spec.MaxD,
			Method:    spec.Method.String(),
			Rows:      make([]SweepSurveyRow, 0, len(rows)),
			Histogram: map[int]int{},
		}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, SweepSurveyRow{
				Factor:    row.Class.Rep.String(),
				ClassSize: row.Class.Size,
				FirstFail: row.FirstFail,
				Theory:    row.Theory,
			})
			if row.FirstFail == 0 {
				resp.Good++
			} else {
				resp.Histogram[row.FirstFail]++
			}
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SweepSurveyResponse)
	resp.Workers = workers
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleSweepCount serves counting sequences (exact |V|, |E|, |S| for
// d = 0..maxd via the transfer-matrix DP) for every factor class up to
// maxlen. No cube construction, so maxd may be much larger than the build
// cap.
func (s *Server) handleSweepCount(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	maxLen, err := parseIntParam(r, "maxlen", 4, 1, 8)
	if err != nil {
		return err
	}
	minLen, err := parseIntParam(r, "minlen", 1, 1, maxLen)
	if err != nil {
		return err
	}
	maxD, err := parseIntParam(r, "maxd", 30, 0, 400)
	if err != nil {
		return err
	}
	workers, err := parseWorkers(r)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("sweep/count|%d|%d|%d", minLen, maxLen, maxD)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		rows, err := sweep.CountGrid(ctx, minLen, maxLen, maxD, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		resp := SweepCountResponse{MinLen: minLen, MaxLen: maxLen, MaxD: maxD}
		for _, row := range rows {
			jr := SweepCountRow{Factor: row.Class.Rep.String(), ClassSize: row.Class.Size}
			for _, bc := range row.Seq {
				jr.V = append(jr.V, bc.V.String())
				jr.E = append(jr.E, bc.E.String())
				jr.S = append(jr.S, bc.S.String())
			}
			resp.Rows = append(resp.Rows, jr)
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SweepCountResponse)
	resp.Workers = workers
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleSweepDegrees serves order and degree profiles — |V|, min/max
// degree and the full degree distribution — for every (class, d) cell.
// The cells run on the implicit DFA-rank backend: no graph is ever built,
// so the grid is bounded by enumeration cost rather than by MaxBuildDim.
func (s *Server) handleSweepDegrees(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	spec, err := s.parseSweepGrid(r, 8, 16)
	if err != nil {
		return err
	}
	workers, err := parseWorkers(r)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("sweep/degrees|%d|%d|%d|%d", spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		cells, err := sweep.DegreeGrid(ctx, spec, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		resp := SweepDegreesResponse{
			MinLen: spec.MinLen, MaxLen: spec.MaxLen,
			MinD: spec.MinD, MaxD: spec.MaxD,
			Cells: make([]SweepDegreeCell, 0, len(cells)),
		}
		for _, c := range cells {
			resp.Cells = append(resp.Cells, SweepDegreeCell{
				Factor:    c.Class.Rep.String(),
				ClassSize: c.Class.Size,
				D:         c.D,
				Order:     formatRank(c.Order),
				MinDeg:    c.MinDeg,
				MaxDeg:    c.MaxDeg,
				Dist:      c.Dist,
			})
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SweepDegreesResponse)
	resp.Workers = workers
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleSweepWiener serves the Wiener-index cross-check grid: for every
// (class, d) cell, the exact BFS Wiener index of Q_d(f) (MS-BFS sweep of
// the explicit graph) next to the closed-form Hamming-distance sum, with
// the match verdict. On isometric cubes the two agree; on connected
// non-isometric ones the exact value is strictly larger.
func (s *Server) handleSweepWiener(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	// Exact cells build Q_d(f) explicitly and sweep all-pairs distances;
	// keep the grid within the classification bounds.
	spec, err := s.parseSweepGrid(r, 8, min(s.cfg.MaxBuildDim, 14))
	if err != nil {
		return err
	}
	workers, err := parseWorkers(r)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("sweep/wiener|%d|%d|%d|%d", spec.MinLen, spec.MaxLen, spec.MinD, spec.MaxD)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		cells, err := sweep.WienerGrid(ctx, spec, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		resp := SweepWienerResponse{
			MinLen: spec.MinLen, MaxLen: spec.MaxLen,
			MinD: spec.MinD, MaxD: spec.MaxD,
			Cells: make([]SweepWienerCell, 0, len(cells)),
		}
		for _, c := range cells {
			resp.Cells = append(resp.Cells, SweepWienerCell{
				Factor:        c.Class.Rep.String(),
				ClassSize:     c.Class.Size,
				D:             c.D,
				Order:         formatRank(c.Order),
				Connected:     c.Connected,
				Wiener:        c.Wiener.String(),
				WienerHamming: c.WienerHamming.String(),
				Match:         c.Match,
				MeanDist:      c.MeanDist,
			})
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SweepWienerResponse)
	resp.Workers = workers
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleSweepFDim serves the f-dimension of one guest graph under every
// factor class up to maxlen (Section 7 batched over factors).
func (s *Server) handleSweepFDim(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	g, label, err := guestGraph(r)
	if err != nil {
		return err
	}
	maxLen, err := parseIntParam(r, "maxlen", 3, 1, 6)
	if err != nil {
		return err
	}
	minLen, err := parseIntParam(r, "minlen", 1, 1, maxLen)
	if err != nil {
		return err
	}
	maxD, err := parseIntParam(r, "maxd", 12, 1, s.cfg.MaxBuildDim)
	if err != nil {
		return err
	}
	workers, err := parseWorkers(r)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("sweep/fdim|%s|%d|%d|%d", label, minLen, maxLen, maxD)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		rows, err := sweep.FDimGrid(ctx, g, minLen, maxLen, maxD, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		resp := SweepFDimResponse{Guest: label, MinLen: minLen, MaxLen: maxLen, MaxD: maxD}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, SweepFDimRow{
				Factor:    row.Class.Rep.String(),
				ClassSize: row.Class.Size,
				Dim:       row.Dim,
				Found:     row.Found,
			})
		}
		// Factors for which the guest has no f-dimension at all sort last;
		// within each group order by dimension then factor for readability.
		sort.SliceStable(resp.Rows, func(i, j int) bool {
			a, b := resp.Rows[i], resp.Rows[j]
			if a.Found != b.Found {
				return a.Found
			}
			if a.Dim != b.Dim {
				return a.Dim < b.Dim
			}
			return a.Factor < b.Factor
		})
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SweepFDimResponse)
	resp.Workers = workers
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}
