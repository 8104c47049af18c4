package service

import (
	"gfcube/internal/store"
)

// Response envelopes for the JSON API. Exact counts are decimal strings
// because |V(Q_d(f))| overflows every fixed-width integer long before the
// dimensions the transfer-matrix DP handles.

// ErrorBody is the error object of the v1 error envelope. Code is one of
// the stable machine-readable codes in errors.go (bad_request, not_found,
// overloaded, timeout, canceled, internal); Message is human-readable and
// free to change. RetryAfterMs accompanies overloaded errors and mirrors
// the Retry-After header.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// CountResponse reports exact vertex/edge/square counts of Q_d(f).
type CountResponse struct {
	Factor string `json:"factor"`
	D      int    `json:"d"`
	V      string `json:"v"`
	E      string `json:"e"`
	S      string `json:"s"`
	// Backend is "implicit+dp" when d fits the implicit DFA-rank backend
	// (d <= 62), whose uint64 tables independently confirm |V|; "dp" when
	// only the arbitrary-dimension big-int DP applies.
	Backend string `json:"backend"`
	// Source reports where the answer came from: "computed" (built this
	// request), "store" (loaded from a disk artifact or the warm pack) or
	// "cache" (served from the in-memory result cache).
	Source  string `json:"source"`
	Cached  bool   `json:"cached"`
	Elapsed string `json:"elapsed"`
}

// RankResponse reports the DFA-rank address of one vertex word. Ranks and
// orders are decimal strings: they reach 2^62, beyond exact float64 JSON
// integers.
type RankResponse struct {
	Factor  string `json:"factor"`
	D       int    `json:"d"`
	Word    string `json:"word"`
	Rank    string `json:"rank"`
	Order   string `json:"order"`
	Backend string `json:"backend"`
	Source  string `json:"source"` // computed | store | cache
	Cached  bool   `json:"cached"`
	Elapsed string `json:"elapsed"`
}

// UnrankResponse reports the vertex word at one rank.
type UnrankResponse struct {
	Factor  string `json:"factor"`
	D       int    `json:"d"`
	Rank    string `json:"rank"`
	Word    string `json:"word"`
	Order   string `json:"order"`
	Backend string `json:"backend"`
	Source  string `json:"source"` // computed | store | cache
	Cached  bool   `json:"cached"`
	Elapsed string `json:"elapsed"`
}

// Neighbor is one adjacent vertex, rank-addressed.
type Neighbor struct {
	Rank string `json:"rank"`
	Word string `json:"word"`
}

// NeighborsResponse reports the adjacency list of one vertex in
// flip-position order.
type NeighborsResponse struct {
	Factor    string     `json:"factor"`
	D         int        `json:"d"`
	Word      string     `json:"word"`
	Degree    int        `json:"degree"`
	Neighbors []Neighbor `json:"neighbors"`
	Order     string     `json:"order"`
	Backend   string     `json:"backend"`
	Source    string     `json:"source"` // computed | store | cache
	Cached    bool       `json:"cached"`
	Elapsed   string     `json:"elapsed"`
}

// ClassifyResponse reports the paper's embeddability classification of
// (f, d), plus the Table 1 row covering f when |f| <= 5.
type ClassifyResponse struct {
	Factor  string      `json:"factor"`
	D       int         `json:"d"`
	Verdict string      `json:"verdict"`
	Reason  string      `json:"reason"`
	Table1  *Table1Info `json:"table1,omitempty"`
	Cached  bool        `json:"cached"`
	Elapsed string      `json:"elapsed"`
}

// Table1Info is the Table 1 row covering the factor's complement/reversal
// class.
type Table1Info struct {
	Representative string `json:"representative"`
	UpTo           int    `json:"upTo"` // -1 means isometric for every d
	Citation       string `json:"citation"`
}

// IsometricResponse reports an exact embeddability check on the explicitly
// constructed cube.
type IsometricResponse struct {
	Factor    string `json:"factor"`
	D         int    `json:"d"`
	Isometric bool   `json:"isometric"`
	// Witness of a violation for negative answers.
	U           string `json:"u,omitempty"`
	V           string `json:"v,omitempty"`
	CubeDist    int32  `json:"cubeDist,omitempty"`
	HammingDist int32  `json:"hammingDist,omitempty"`
	Cached      bool   `json:"cached"`
	Elapsed     string `json:"elapsed"`
}

// FDimResponse reports an f-dimension computation for a standard guest
// graph.
type FDimResponse struct {
	Factor  string `json:"factor"`
	Guest   string `json:"guest"`
	Dim     int    `json:"dim"`
	Found   bool   `json:"found"`
	MaxD    int    `json:"maxD"`
	Cached  bool   `json:"cached"`
	Elapsed string `json:"elapsed"`
}

// RouteResponse reports one routed path between two vertex words. For the
// word router Path and Ranks are parallel: Ranks[i] is the DFA-rank
// address of Path[i] (decimal string), and Backend reports "implicit" —
// the route is computed without any cube construction at any d <= 62.
type RouteResponse struct {
	Factor    string   `json:"factor"`
	D         int      `json:"d"`
	Src       string   `json:"src"`
	Dst       string   `json:"dst"`
	Router    string   `json:"router"`
	Backend   string   `json:"backend"`
	Delivered bool     `json:"delivered"`
	Hops      int      `json:"hops"`
	Stretch   float64  `json:"stretch,omitempty"`
	Path      []string `json:"path,omitempty"`
	Ranks     []string `json:"ranks,omitempty"`
	Cached    bool     `json:"cached"`
	Elapsed   string   `json:"elapsed"`
}

// SimulateResponse reports a synchronous store-and-forward traffic run.
type SimulateResponse struct {
	Factor      string  `json:"factor"`
	D           int     `json:"d"`
	Pattern     string  `json:"pattern"`
	Router      string  `json:"router"`
	Seed        int64   `json:"seed"`
	Packets     int     `json:"packets"`
	Delivered   int     `json:"delivered"`
	Stuck       int     `json:"stuck"`
	Undelivered int     `json:"undelivered"`
	Rounds      int     `json:"rounds"`
	TotalHops   int     `json:"totalHops"`
	MaxHops     int     `json:"maxHops"`
	AvgLatency  float64 `json:"avgLatency"`
	MaxQueue    int     `json:"maxQueue"`
	Cached      bool    `json:"cached"`
	Elapsed     string  `json:"elapsed"`
}

// BroadcastResponse reports a one-to-all broadcast from a root vertex.
type BroadcastResponse struct {
	Factor   string `json:"factor"`
	D        int    `json:"d"`
	Root     string `json:"root"`
	Rounds   int    `json:"rounds"`
	Messages int    `json:"messages"`
	Reached  int    `json:"reached"`
	Nodes    int    `json:"nodes"`
	Cached   bool   `json:"cached"`
	Elapsed  string `json:"elapsed"`
}

// HamiltonResponse reports a bounded Hamiltonian path/cycle search.
type HamiltonResponse struct {
	Factor  string  `json:"factor"`
	D       int     `json:"d"`
	Cycle   bool    `json:"cycle"`
	Outcome string  `json:"outcome"` // found | none | inconclusive
	Order   []int32 `json:"order,omitempty"`
	Cached  bool    `json:"cached"`
	Elapsed string  `json:"elapsed"`
}

// SweepCell is one (factor class, d) cell of a classification grid.
type SweepCell struct {
	Factor    string `json:"factor"`    // canonical class representative
	ClassSize int    `json:"classSize"` // words sharing the verdict by symmetry
	D         int    `json:"d"`
	Isometric bool   `json:"isometric"`
	// Witness of a violation (or critical pair) for negative verdicts.
	U           string `json:"u,omitempty"`
	V           string `json:"v,omitempty"`
	CubeDist    int32  `json:"cubeDist,omitempty"`
	HammingDist int32  `json:"hammingDist,omitempty"`
}

// SweepClassifyResponse reports a full classification grid in deterministic
// order: classes shortest-first then by value, d ascending within a class.
type SweepClassifyResponse struct {
	MinLen  int         `json:"minLen"`
	MaxLen  int         `json:"maxLen"`
	MinD    int         `json:"minD"`
	MaxD    int         `json:"maxD"`
	Method  string      `json:"method"`
	Workers int         `json:"workers"`
	Cells   []SweepCell `json:"cells"`
	Cached  bool        `json:"cached"`
	Elapsed string      `json:"elapsed"`
}

// SweepSurveyRow is the first-failure summary of one factor class.
type SweepSurveyRow struct {
	Factor    string `json:"factor"`
	ClassSize int    `json:"classSize"`
	// FirstFail is the smallest d with a non-isometric verdict, 0 when the
	// class stays isometric ("good") up to maxd.
	FirstFail int    `json:"firstFail"`
	Theory    string `json:"theory"`
}

// SweepSurveyResponse reports a first-failure survey with the histogram
// printed by gfc-survey.
type SweepSurveyResponse struct {
	MinLen    int              `json:"minLen"`
	MaxLen    int              `json:"maxLen"`
	MaxD      int              `json:"maxD"`
	Method    string           `json:"method"`
	Workers   int              `json:"workers"`
	Rows      []SweepSurveyRow `json:"rows"`
	Good      int              `json:"good"`
	Histogram map[int]int      `json:"histogram"` // first-fail d -> classes
	Cached    bool             `json:"cached"`
	Elapsed   string           `json:"elapsed"`
}

// SweepCountRow is the counting sequence of one factor class; index d,
// decimal strings (the counts overflow fixed-width integers quickly).
type SweepCountRow struct {
	Factor    string   `json:"factor"`
	ClassSize int      `json:"classSize"`
	V         []string `json:"v"`
	E         []string `json:"e"`
	S         []string `json:"s"`
}

// SweepCountResponse reports counting sequences for a factor grid.
type SweepCountResponse struct {
	MinLen  int             `json:"minLen"`
	MaxLen  int             `json:"maxLen"`
	MaxD    int             `json:"maxD"`
	Workers int             `json:"workers"`
	Rows    []SweepCountRow `json:"rows"`
	Cached  bool            `json:"cached"`
	Elapsed string          `json:"elapsed"`
}

// SweepFDimRow is the f-dimension of the guest under one factor class.
type SweepFDimRow struct {
	Factor    string `json:"factor"`
	ClassSize int    `json:"classSize"`
	Dim       int    `json:"dim"`
	Found     bool   `json:"found"`
}

// SweepFDimResponse reports a guest graph's f-dimension across a factor
// grid, smallest dimension first.
type SweepFDimResponse struct {
	Guest   string         `json:"guest"`
	MinLen  int            `json:"minLen"`
	MaxLen  int            `json:"maxLen"`
	MaxD    int            `json:"maxD"`
	Workers int            `json:"workers"`
	Rows    []SweepFDimRow `json:"rows"`
	Cached  bool           `json:"cached"`
	Elapsed string         `json:"elapsed"`
}

// SweepDegreeCell is the order and degree profile of one (class, d) cell,
// computed on the implicit backend (no graph construction).
type SweepDegreeCell struct {
	Factor    string  `json:"factor"`
	ClassSize int     `json:"classSize"`
	D         int     `json:"d"`
	Order     string  `json:"order"`
	MinDeg    int     `json:"minDeg"`
	MaxDeg    int     `json:"maxDeg"`
	Dist      []int64 `json:"dist"` // index = degree
}

// SweepDegreesResponse reports a degree-profile grid in deterministic
// order: classes shortest-first then by value, d ascending.
type SweepDegreesResponse struct {
	MinLen  int               `json:"minLen"`
	MaxLen  int               `json:"maxLen"`
	MinD    int               `json:"minD"`
	MaxD    int               `json:"maxD"`
	Workers int               `json:"workers"`
	Cells   []SweepDegreeCell `json:"cells"`
	Cached  bool              `json:"cached"`
	Elapsed string            `json:"elapsed"`
}

// SweepWienerCell cross-checks the exact BFS Wiener index of one
// (class, d) cell against the closed-form Hamming sum. Values are decimal
// strings (they overflow fixed-width integers quickly).
type SweepWienerCell struct {
	Factor    string `json:"factor"`
	ClassSize int    `json:"classSize"`
	D         int    `json:"d"`
	Order     string `json:"order"`
	Connected bool   `json:"connected"`
	// Wiener is the exact shortest-path sum; WienerHamming the Hamming
	// lower bound; Match reports their equality on a connected cell.
	Wiener        string  `json:"wiener"`
	WienerHamming string  `json:"wienerHamming"`
	Match         bool    `json:"match"`
	MeanDist      float64 `json:"meanDist"`
}

// SweepWienerResponse reports a Wiener-index grid in deterministic order:
// classes shortest-first then by value, d ascending.
type SweepWienerResponse struct {
	MinLen  int               `json:"minLen"`
	MaxLen  int               `json:"maxLen"`
	MinD    int               `json:"minD"`
	MaxD    int               `json:"maxD"`
	Workers int               `json:"workers"`
	Cells   []SweepWienerCell `json:"cells"`
	Cached  bool              `json:"cached"`
	Elapsed string            `json:"elapsed"`
}

// StatsResponse is the /stats ("metrics") payload.
type StatsResponse struct {
	UptimeSeconds   float64 `json:"uptimeSeconds"`
	Requests        uint64  `json:"requests"`
	Errors          uint64  `json:"errors"`
	CacheHits       uint64  `json:"cacheHits"`
	CacheMisses     uint64  `json:"cacheMisses"`
	CacheHitRate    float64 `json:"cacheHitRate"`
	CacheEntries    int     `json:"cacheEntries"`
	CubeCacheLen    int     `json:"cubeCacheEntries"`
	Workers         int     `json:"workers"`
	InFlightJobs    int64   `json:"inFlightJobs"`
	CompletedJobs   uint64  `json:"completedJobs"`
	RejectedJobs    uint64  `json:"rejectedJobs"`
	AvgJobLatencyMs float64 `json:"avgJobLatencyMs"`
	// Micro-batching front counters (see /metrics for the full
	// per-operation histograms).
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batchedRequests"`
	BatchShed       uint64 `json:"batchShed"`
	BatchLanes      int    `json:"batchLanes"`
	// Sweep column-cache effectiveness (process-wide): cube constructions
	// served incrementally off a cached class column vs rebuilt from
	// scratch. See core.ColumnCounters.
	ColumnReuse   uint64 `json:"sweepColumnReuse"`
	ColumnRebuild uint64 `json:"sweepColumnRebuild"`
	// Store is the artifact-store snapshot, absent when the store is
	// disabled.
	Store *StoreStatsResponse `json:"store,omitempty"`
}

// StoreStatsResponse is the artifact-store section of /stats and the body
// of GET /v1/admin/store: the disk inventory and lifetime counters plus
// the provider's compute count and the mounted warm-pack manifest.
type StoreStatsResponse struct {
	store.Stats
	// Computed counts backends built from scratch (store misses and
	// corruption fallbacks); a pure warm start keeps it at zero.
	Computed uint64          `json:"computed"`
	WarmPack *store.Manifest `json:"warmPack,omitempty"`
}

// WarmRequest is the body of POST /v1/admin/warm. Either Pack requests
// preloading every artifact of the mounted warm pack, or Factors lists
// explicit forbidden factors to warm across dimensions [MinD, MaxD]
// (defaults 1..12). Cubes additionally warms explicit cube artifacts
// (bounded by the server's MaxBuildDim); rankers are always warmed.
type WarmRequest struct {
	Pack    bool     `json:"pack"`
	Factors []string `json:"factors"`
	MinD    int      `json:"minD"`
	MaxD    int      `json:"maxD"`
	Cubes   bool     `json:"cubes"`
}

// WarmResponse reports a warm run: how many (f, d) backends were
// resolved, split by where they came from.
type WarmResponse struct {
	Warmed   int    `json:"warmed"`
	Store    int    `json:"store"`
	Computed int    `json:"computed"`
	Elapsed  string `json:"elapsed"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status string `json:"status"`
}
