package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gfcube/internal/core"
	"gfcube/internal/sweep"
)

// span is one recorded interval at a layer boundary. Spans of one replay
// share a run id; Parent is -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the benchmark
// ends. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	run   int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRun starts a new run id for the spans that follow.
func (t *tracer) newRun() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run++
	return t.run
}

func (t *tracer) begin(name string, parent int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Run: t.run, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTimes is, per span name of one run, the total duration, the self
// time (duration minus the part of it covered by child spans) and the
// span count.
type layerTimes map[string]*layerTime

type layerTime struct {
	total, self time.Duration
	count       int
	durs        []float64 // ms, per span
}

func (t *tracer) layers(run int32) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Run == run && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := layerTimes{}
	for _, s := range t.spans {
		if s.Run != run {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.total += s.dur()
		lt.self += s.dur() - covered(s, children[s.ID])
		lt.count++
		lt.durs = append(lt.durs, ms(s.dur()))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, hi int64 = 0, parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return time.Duration(sum)
}

func (lt layerTimes) ms(name string) float64 {
	if l := lt[name]; l != nil {
		return ms(l.total)
	}
	return 0
}

// table renders the layer split of one run, largest self time first.
func (lt layerTimes) table(title string) []string {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].self > lt[names[j]].self })
	out := []string{title}
	for _, n := range names {
		l := lt[n]
		out = append(out, fmt.Sprintf("  %-18s n=%-7d total %10.3f ms  self %10.3f ms", n, l.count, ms(l.total), ms(l.self)))
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passStats are the counts a traced census pass records at the MS-BFS
// boundary, over the cells that came out isometric (where the all-pairs
// search runs to completion).
type passStats struct {
	cellsIsometric int
	msbfsBatches   int     // sum of ceil(|V|/64)
	srcEdges       float64 // sum of |V|·|E|
	isometricTime  time.Duration
}

// tracedPass replays one sweep workload through sweep.Run with the cell
// body decomposed at the layer boundaries of core.ClassifyCell: the
// column-builder step (core.extend), then the exact check (core.isometric)
// or the critical-pair screen (core.screen). Its output lines must equal
// the golden table, which catches a decomposition that drifts from
// core.ClassifyCell.
func tracedPass(tr *tracer, k sweepKind) ([]string, passStats, error) {
	var st passStats
	var pass int32                // the sweep.pass span, parent of every cell
	cb := core.NewColumnBuilder() // one worker, so one builder
	advance := func(parent int32, d int, cl core.Class) *core.Cube {
		id := tr.begin("core.extend", parent)
		c := cb.Advance(d, cl.Rep)
		tr.end(id)
		return c
	}
	var fn sweep.Func
	var tasks []sweep.Task
	switch k.name {
	case censusKind.name:
		tasks = sweep.CellTasks(censusSpec.MinLen, censusSpec.MaxLen, censusSpec.MinD, censusSpec.MaxD)
		fn = func(ctx context.Context, s *core.Scratch, t sweep.Task) (any, error) {
			cell := tr.begin("sweep.cell", pass)
			c := advance(cell, t.D, t.Class)
			id := tr.begin("core.isometric", cell)
			t0 := time.Now()
			res := s.IsIsometric(c)
			el := time.Since(t0)
			tr.end(id)
			out := core.Cell{Class: t.Class, D: t.D, Isometric: res.Isometric}
			if res.Isometric {
				st.cellsIsometric++
				st.msbfsBatches += (c.N() + 63) / 64
				st.srcEdges += float64(c.N()) * float64(c.M())
				st.isometricTime += el
			} else {
				out.Witness = &res
			}
			tr.end(cell)
			return cellLine(out), nil
		}
	case surveyKind.name:
		tasks = sweep.ClassTasks(surveySpec.MinLen, surveySpec.MaxLen)
		fn = func(ctx context.Context, s *core.Scratch, t sweep.Task) (any, error) {
			cell := tr.begin("sweep.cell", pass)
			row := sweep.SurveyRow{Class: t.Class, Theory: "-"}
			for d := max(t.Class.Rep.Len()+1, surveySpec.MinD); d <= surveySpec.MaxD; d++ {
				c := advance(cell, d, t.Class)
				id := tr.begin("core.screen", cell)
				_, found := c.HasCriticalPair(3)
				tr.end(id)
				if found {
					row.FirstFail = d
					break
				}
			}
			id := tr.begin("core.theory", cell)
			if v := core.Classify(t.Class.Rep, surveySpec.MaxD); v.Verdict != core.Unknown {
				row.Theory = v.Reason
			}
			tr.end(id)
			tr.end(cell)
			return surveyLine(row), nil
		}
	default:
		return nil, st, fmt.Errorf("no traced pass for %s", k.name)
	}
	pass = tr.begin("sweep.pass", -1)
	results, err := sweep.Run(context.Background(), tasks, fn, sweepOpts(nil))
	tr.end(pass)
	if err != nil {
		return nil, st, err
	}
	lines := make([]string, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, st, r.Err
		}
		lines[i] = r.Value.(string)
	}
	return lines, st, nil
}
