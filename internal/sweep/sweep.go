// Package sweep implements a parallel batch-execution engine for the
// (d, f)-grid workloads that dominate this repository: the Table 1
// classification census, counting sequences, exact isometry checks with
// witnesses, and f-dimension searches. Every downstream result of the paper
// (counting recurrences, the E11 conjecture check, the length-6 census) is
// a sweep over the same grid, so the engine is the shared substrate for the
// HTTP batch endpoints, the gfc-survey command and the CI benchmark
// fixture.
//
// The engine fans tasks across a bounded worker pool. Each worker owns one
// core.Scratch, so cube construction and BFS run allocation-free after
// warm-up. Tasks are handed out column-affine: a contiguous run of tasks
// on the same factor class goes to one worker as a unit, so the scratch's
// incremental column builder turns each ascending-d class column into a
// chain of O(|V|+|E|) extension steps instead of independent from-scratch
// builds (see core.ColumnBuilder). Results are re-sequenced before
// delivery: consumers always see them in task order regardless of which
// worker finished first, which makes parallel runs byte-for-byte
// comparable with serial ones. Cancellation is cooperative — pending
// tasks (including the unstarted remainder of an in-flight column) are
// abandoned when the context is done, and the stream closes after
// in-flight cells drain.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"time"

	"gfcube/internal/core"
)

// Task is one unit of grid work: a forbidden-factor class and, for
// cell-granular workloads, a dimension. Seq is assigned by the engine from
// the task's position in the input slice and defines the delivery order.
type Task struct {
	Seq   int
	Class core.Class
	D     int // -1 for class-granular tasks that scan a dimension range
}

// Result pairs a task with its workload-specific payload.
type Result struct {
	Task
	Value   any
	Err     error
	Elapsed time.Duration
}

// Func computes one task. The scratch is owned by the calling worker and
// reused across its tasks; implementations must not retain it.
type Func func(ctx context.Context, s *core.Scratch, t Task) (any, error)

// Options tunes an engine run. The zero value is usable.
type Options struct {
	// Workers bounds the pool size; zero or negative defaults to
	// runtime.GOMAXPROCS(0), so unset means "use the machine". One worker
	// reproduces the serial execution exactly; on a single-CPU runner
	// every setting degenerates to that, so parallel speedups need real
	// cores (see bench_test.go).
	Workers int
	// Buffer is the capacity of the delivery channel (default Workers).
	Buffer int
	// Progress, when non-nil, is called after every completed task with the
	// number of tasks finished so far and the total. Calls are serialized.
	Progress func(done, total int)
	// Provider, when non-nil, is installed on every worker's Scratch so
	// cube construction resolves through it (e.g. a store-backed
	// compute-or-load provider) instead of always building from scratch.
	Provider core.Provider
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Buffer < 1 {
		o.Buffer = o.Workers
	}
	return o
}

// Stream fans tasks across the worker pool and delivers results on the
// returned channel in task order (ascending input position), closing it
// when every task has been delivered or the context is cancelled. On
// cancellation the delivered results form a prefix of the task list;
// workers finish their in-flight task and stop.
func Stream(ctx context.Context, tasks []Task, fn Func, opts Options) <-chan Result {
	opts = opts.withDefaults()
	out := make(chan Result, opts.Buffer)
	go run(ctx, tasks, fn, opts, out)
	return out
}

// Run is Stream collected into a slice. When ctx is cancelled mid-grid it
// returns the ordered prefix of results computed so far together with the
// context error.
func Run(ctx context.Context, tasks []Task, fn Func, opts Options) ([]Result, error) {
	results := make([]Result, 0, len(tasks))
	for r := range Stream(ctx, tasks, fn, opts) {
		results = append(results, r)
	}
	if err := ctx.Err(); err != nil && len(results) < len(tasks) {
		return results, err
	}
	return results, nil
}

func run(ctx context.Context, tasks []Task, fn Func, opts Options, out chan<- Result) {
	defer close(out)
	if len(tasks) == 0 {
		return
	}
	workers := opts.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	feed := make(chan []Task)
	done := make(chan Result, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := core.NewScratch()
			s.Provider = opts.Provider
			for grp := range feed {
				for _, t := range grp {
					// Per-cell check so cancellation abandons the rest of a
					// column, not just the rest of the grid.
					if ctx.Err() != nil {
						break
					}
					start := time.Now()
					v, err := fn(ctx, s, t)
					done <- Result{Task: t, Value: v, Err: err, Elapsed: time.Since(start)}
				}
			}
		}()
	}
	// Seq is assigned on a copy so grouped subslices can be fed without
	// mutating the caller's tasks.
	seqd := make([]Task, len(tasks))
	for i, t := range tasks {
		t.Seq = i
		seqd[i] = t
	}
	go func() {
		defer close(feed)
		for lo := 0; lo < len(seqd); {
			// A group is a maximal contiguous run on one factor class — an
			// ascending-d column in grid order, which is what the scratch's
			// column builder extends incrementally. Tasks without a class
			// (engine tests, synthetic workloads) stay cell-granular.
			hi := lo + 1
			if rep := seqd[lo].Class.Rep; rep.Len() > 0 {
				for hi < len(seqd) && seqd[hi].Class.Rep == rep {
					hi++
				}
			}
			// The explicit Err check makes cancellation prompt: once cancel
			// returns, no further group is handed out, even if a worker is
			// already waiting on the feed channel.
			if ctx.Err() != nil {
				return
			}
			select {
			case feed <- seqd[lo:hi]:
			case <-ctx.Done():
				return
			}
			lo = hi
		}
	}()
	go func() {
		wg.Wait()
		close(done)
	}()

	// Re-sequence: hold out-of-order completions until their predecessors
	// arrive, so delivery order equals task order. Once the context is
	// cancelled, keep draining workers but stop delivering.
	pending := make(map[int]Result, workers)
	next, finished := 0, 0
	cancelled := false
	for r := range done {
		finished++
		if opts.Progress != nil {
			opts.Progress(finished, len(tasks))
		}
		if cancelled {
			continue
		}
		pending[r.Seq] = r
		for !cancelled {
			nr, ok := pending[next]
			if !ok {
				break
			}
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			delete(pending, next)
			select {
			case out <- nr:
				next++
			case <-ctx.Done():
				cancelled = true
			}
		}
	}
}

// CellTasks expands a grid spec into cell-granular tasks: canonical classes
// in (length, value) order, dimensions ascending within each class — the
// same order core.ClassifyAll emits.
func CellTasks(minLen, maxLen, minD, maxD int) []Task {
	if minD < 1 {
		minD = 1
	}
	var tasks []Task
	for _, cl := range core.Classes(minLen, maxLen) {
		for d := minD; d <= maxD; d++ {
			tasks = append(tasks, Task{Class: cl, D: d})
		}
	}
	return tasks
}

// ClassTasks expands a grid spec into class-granular tasks (one per
// canonical class, D = -1) for workloads that scan dimensions internally.
func ClassTasks(minLen, maxLen int) []Task {
	var tasks []Task
	for _, cl := range core.Classes(minLen, maxLen) {
		tasks = append(tasks, Task{Class: cl, D: -1})
	}
	return tasks
}
