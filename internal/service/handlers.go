package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
	"gfcube/internal/graph"
	"gfcube/internal/hamilton"
	"gfcube/internal/isometry"
	"gfcube/internal/network"
)

func elapsedSince(t time.Time) string { return time.Since(t).Round(time.Microsecond).String() }

// handleCount serves exact |V|, |E|, |S| of Q_d(f) via the transfer-matrix
// DP — no cube construction, so d may be large (far beyond MaxBuildDim).
// Up to d = bitstr.MaxLen the cached implicit backend independently
// recomputes |V| on its uint64 tables; a disagreement between the two
// pipelines is a server error, so every served count in that range is
// double-checked. Counts are invariant under the complement/reversal
// symmetry, so the cache key and the batch lane are the canonical class:
// concurrent requests anywhere in the class fuse into one DP run, and a
// whole class shares one cache entry.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, d, err := s.decodeFD(r, -1, 0, s.cfg.MaxCountDim)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("count|%s|%d", f.canon, d)
	v, cached, err := s.batched(r, "count", key, key, countReq{key: key},
		s.countExec(f, d, key),
		func(ctx context.Context) (any, error) {
			resp, err := s.countOne(ctx, f, d)
			if err != nil {
				return nil, err
			}
			return resp, nil
		})
	if err != nil {
		return err
	}
	resp := v.(CountResponse)
	resp.Factor = f.s // the canonical-class cache entry serves the whole class
	resp.Cached = cached
	if cached {
		resp.Source = cacheSource(resp.Source)
	}
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleClassify serves the paper's embeddability classification and the
// Table 1 row for the factor's symmetry class.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, d, err := s.decodeFD(r, -1, 0, 1<<30)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("classify|%s|%d", f.s, d)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		cl := core.Classify(f.w, d)
		resp := ClassifyResponse{
			Factor: f.s, D: d,
			Verdict: cl.Verdict.String(), Reason: cl.Reason,
		}
		if row, ok := core.Table1Lookup(f.w); ok {
			resp.Table1 = &Table1Info{
				Representative: row.Factor,
				UpTo:           row.UpTo,
				Citation:       row.Citation,
			}
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(ClassifyResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleIsometric serves the exact embeddability check on the explicitly
// constructed cube: the isometry criterion decides, and a negative verdict
// names the first 2- or 3-critical pair as its witness, or the MS-BFS
// violating pair when there is none (Cube.IsIsometricQuickCtx).
func (s *Server) handleIsometric(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, d, err := s.decodeFD(r, -1, 0, s.cfg.MaxBuildDim)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("iso|%s|%d", f.s, d)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		c, _, err := s.cube(ctx, f, d)
		if err != nil {
			return nil, err
		}
		res, err := c.IsIsometricQuickCtx(ctx)
		if err != nil {
			return nil, err
		}
		resp := IsometricResponse{Factor: f.s, D: d, Isometric: res.Isometric}
		if !res.Isometric {
			resp.U = res.U.String()
			resp.V = res.V.String()
			resp.CubeDist = res.CubeDist
			resp.HammingDist = res.HammingDist
		}
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(IsometricResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// guestGraph builds the standard guest graphs of the Section 7 experiments.
func guestGraph(r *http.Request) (*graph.Graph, string, error) {
	kind := r.URL.Query().Get("graph")
	switch kind {
	case "path", "cycle", "star":
		n, err := parseIntParam(r, "n", -1, 1, 24)
		if err != nil {
			return nil, "", err
		}
		switch kind {
		case "path":
			return graph.Path(n), fmt.Sprintf("path(%d)", n), nil
		case "cycle":
			if n < 3 {
				return nil, "", badRequest("cycle requires n >= 3")
			}
			return graph.Cycle(n), fmt.Sprintf("cycle(%d)", n), nil
		default:
			return graph.Star(n), fmt.Sprintf("star(%d)", n), nil
		}
	case "grid":
		p, err := parseIntParam(r, "p", -1, 1, 6)
		if err != nil {
			return nil, "", err
		}
		q, err := parseIntParam(r, "q", -1, 1, 6)
		if err != nil {
			return nil, "", err
		}
		return graph.Grid(p, q), fmt.Sprintf("grid(%dx%d)", p, q), nil
	case "":
		return nil, "", badRequest("missing required parameter graph (path|cycle|star|grid)")
	default:
		return nil, "", badRequest("unknown graph kind %q (want path|cycle|star|grid)", kind)
	}
}

// handleFDim serves dim_f(G) for a standard guest graph G.
func (s *Server) handleFDim(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, err := s.parseFactor(r)
	if err != nil {
		return err
	}
	g, label, err := guestGraph(r)
	if err != nil {
		return err
	}
	maxD, err := parseIntParam(r, "maxd", 12, 1, s.cfg.MaxBuildDim)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("fdim|%s|%s|%d", f.s, label, maxD)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		res, err := isometry.FDimCtx(ctx, g, f.w, maxD)
		if err != nil {
			return nil, err
		}
		return FDimResponse{
			Factor: f.s, Guest: label,
			Dim: res.Dim, Found: res.Found, MaxD: maxD,
		}, nil
	})
	if err != nil {
		return err
	}
	resp := v.(FDimResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleRoute serves a single routed walk between two vertex words. The
// "word" router runs on the implicit DFA-rank backend — no cube
// construction, any dimension up to bitstr.MaxLen = 62, per-hop ranks in
// the trace; the cube-backed routers (greedy, oracle, deroute) build
// Q_d(f) and stay bounded by MaxBuildDim.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, err := s.parseFactor(r)
	if err != nil {
		return err
	}
	router := r.URL.Query().Get("router")
	if router == "" {
		router = "word"
	}
	maxBuild := s.cfg.MaxBuildDim
	maxD := maxBuild
	if router == "word" {
		maxD = bitstr.MaxLen
	}
	d, err := parseIntParam(r, "d", -1, 1, maxD)
	if err != nil {
		return err
	}
	src, err := parseWordParam(r, "src", d)
	if err != nil {
		return err
	}
	dst, err := parseWordParam(r, "dst", d)
	if err != nil {
		return err
	}
	if src.HasFactor(f.w) || dst.HasFactor(f.w) {
		return badRequest("src and dst must avoid the factor %s", f.s)
	}
	key := fmt.Sprintf("route|%s|%d|%s|%s|%s", f.s, d, router, src, dst)
	if router == "word" {
		// The word router is batch-native: one view resolution per lane
		// dispatch routes every rider.
		lane := fmt.Sprintf("route|%s|%d", f.s, d)
		v, cached, err := s.batched(r, "route", lane, key, routeReq{src: src, dst: dst, key: key},
			s.routeExec(f, d),
			func(ctx context.Context) (any, error) {
				view, _, err := s.implicitView(ctx, f, d)
				if err != nil {
					return nil, err
				}
				return wordRouteOne(network.NewViewRouter(view), f, d, src, dst), nil
			})
		if err != nil {
			return err
		}
		resp := v.(RouteResponse)
		resp.Cached = cached
		resp.Elapsed = elapsedSince(start)
		writeJSON(w, http.StatusOK, resp)
		return nil
	}
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		resp := RouteResponse{
			Factor: f.s, D: d,
			Src: src.String(), Dst: dst.String(), Router: router,
			Backend: "explicit",
		}
		c, _, err := s.cube(ctx, f, d)
		if err != nil {
			return nil, err
		}
		n := network.New(c)
		si, _ := c.Rank(src)
		di, _ := c.Rank(dst)
		var rr network.RouteResult
		switch router {
		case "greedy":
			rr = n.Route(network.NewGreedyRouter(n), si, di, 0)
		case "oracle":
			rr = n.Route(network.NewOracleRouter(n), si, di, 0)
		case "deroute":
			rr = network.NewDerouteRouter(n).RouteDeroute(si, di, 0)
		default:
			return nil, badRequest("unknown router %q (want word|greedy|oracle|deroute)", router)
		}
		resp.Delivered = rr.Delivered
		resp.Hops = rr.Hops
		resp.Stretch = rr.Stretch
		return resp, nil
	})
	if err != nil {
		return err
	}
	resp := v.(RouteResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleSimulate runs the synchronous store-and-forward simulator over a
// standard traffic pattern.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, d, err := s.decodeFD(r, -1, 1, s.cfg.MaxBuildDim)
	if err != nil {
		return err
	}
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		pattern = "uniform"
	}
	router := r.URL.Query().Get("router")
	if router == "" {
		router = "greedy"
	}
	count, err := parseIntParam(r, "count", 256, 1, 1<<16)
	if err != nil {
		return err
	}
	seed, err := parseIntParam(r, "seed", 1, 0, 1<<30)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("sim|%s|%d|%s|%s|%d|%d", f.s, d, pattern, router, count, seed)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		c, _, err := s.cube(ctx, f, d)
		if err != nil {
			return nil, err
		}
		n := network.New(c)
		if n.Size() == 0 {
			return nil, badRequest("Q_%d(%s) has no vertices", d, f.s)
		}
		var pairs [][2]int
		switch pattern {
		case "uniform":
			pairs = n.UniformPairs(count, int64(seed))
		case "permutation":
			pairs = n.PermutationPairs(int64(seed))
		case "hotspot":
			pairs = n.HotspotPairs(count, 0, 0.5, int64(seed))
		default:
			return nil, badRequest("unknown pattern %q (want uniform|permutation|hotspot)", pattern)
		}
		var rt network.Router
		switch router {
		case "greedy":
			rt = network.NewGreedyRouter(n)
		case "oracle":
			rt = network.NewOracleRouter(n)
		default:
			return nil, badRequest("unknown router %q (want greedy|oracle)", router)
		}
		res, err := n.SimulateCtx(ctx, network.MakePackets(pairs), rt, network.SimConfig{})
		if err != nil {
			return nil, err
		}
		return SimulateResponse{
			Factor: f.s, D: d, Pattern: pattern, Router: router, Seed: int64(seed),
			Packets: res.Packets, Delivered: res.Delivered, Stuck: res.Stuck,
			Undelivered: res.Undelivered, Rounds: res.Rounds,
			TotalHops: res.TotalHops, MaxHops: res.MaxHops,
			AvgLatency: res.AvgLatency, MaxQueue: res.MaxQueue,
		}, nil
	})
	if err != nil {
		return err
	}
	resp := v.(SimulateResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleBroadcast runs a one-to-all BFS-tree broadcast from a root word.
func (s *Server) handleBroadcast(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, d, err := s.decodeFD(r, -1, 1, s.cfg.MaxBuildDim)
	if err != nil {
		return err
	}
	root, err := parseWordParam(r, "root", d)
	if err != nil {
		return err
	}
	if root.HasFactor(f.w) {
		return badRequest("root must avoid the factor %s", f.s)
	}
	key := fmt.Sprintf("bcast|%s|%d|%s", f.s, d, root)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		c, _, err := s.cube(ctx, f, d)
		if err != nil {
			return nil, err
		}
		n := network.New(c)
		ri, _ := c.Rank(root)
		res := n.Broadcast(ri)
		return BroadcastResponse{
			Factor: f.s, D: d, Root: root.String(),
			Rounds: res.Rounds, Messages: res.Messages,
			Reached: res.Reached, Nodes: n.Size(),
		}, nil
	})
	if err != nil {
		return err
	}
	resp := v.(BroadcastResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleHamilton runs the bounded Hamiltonian path/cycle search.
func (s *Server) handleHamilton(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	f, err := s.parseFactor(r)
	if err != nil {
		return err
	}
	maxD := s.cfg.MaxBuildDim
	if maxD > 18 {
		maxD = 18 // backtracking search; keep the state space sane
	}
	d, err := parseIntParam(r, "d", -1, 0, maxD)
	if err != nil {
		return err
	}
	cycle := r.URL.Query().Get("cycle") == "true"
	budget, err := parseIntParam(r, "budget", 0, 0, 1<<30)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("ham|%s|%d|%t|%d", f.s, d, cycle, budget)
	v, cached, err := s.compute(r.Context(), key, func(ctx context.Context) (any, error) {
		c, _, err := s.cube(ctx, f, d)
		if err != nil {
			return nil, err
		}
		var order []int32
		var res hamilton.Result
		if cycle {
			order, res = hamilton.CycleCtx(ctx, c.Graph(), int64(budget))
		} else {
			order, res = hamilton.PathCtx(ctx, c.Graph(), int64(budget))
		}
		// A Found/None verdict is valid even if the deadline fired on the
		// way out; only an Inconclusive caused by cancellation is an error.
		if res == hamilton.Inconclusive {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		return HamiltonResponse{
			Factor: f.s, D: d, Cycle: cycle,
			Outcome: res.String(), Order: order,
		}, nil
	})
	if err != nil {
		return err
	}
	resp := v.(HamiltonResponse)
	resp.Cached = cached
	resp.Elapsed = elapsedSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}
