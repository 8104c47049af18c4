package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gfcube/internal/core"
)

// fakeTasks builds n class-granular tasks (the engine never inspects the
// class for synthetic workloads).
func fakeTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{D: i}
	}
	return tasks
}

// Results must arrive in task order no matter how workers interleave. The
// staggered sleep makes late tasks finish first without a reorder buffer.
func TestStreamDeterministicOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		fn := func(ctx context.Context, s *core.Scratch, task Task) (any, error) {
			time.Sleep(time.Duration((n-task.Seq)%7) * time.Millisecond)
			return task.Seq * 10, nil
		}
		var got []Result
		for r := range Stream(context.Background(), fakeTasks(n), fn, Options{Workers: workers}) {
			got = append(got, r)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, r := range got {
			if r.Seq != i || r.Value.(int) != i*10 {
				t.Fatalf("workers=%d: result %d has Seq=%d Value=%v", workers, i, r.Seq, r.Value)
			}
		}
	}
}

// Parallel and serial runs of a real grid must be byte-for-byte identical.
func TestClassifyGridMatchesSerial(t *testing.T) {
	spec := GridSpec{MaxLen: 4, MaxD: 8, Method: core.MethodExact}
	serial := core.ClassifyAll(4, core.GridOptions{MaxD: 8, Method: core.MethodExact})
	for _, workers := range []int{1, 4} {
		cells, err := ClassifyGrid(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(cells) != len(serial) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(cells), len(serial))
		}
		for i := range cells {
			if cells[i].Rep != serial[i].Rep || cells[i].D != serial[i].D ||
				cells[i].Isometric != serial[i].Isometric {
				t.Errorf("workers=%d cell %d: parallel %+v vs serial %+v",
					workers, i, cells[i], serial[i])
			}
		}
	}
}

// The class- and cell-granular grid wrappers deliver the same payloads,
// witnesses and big.Int sums included, at any worker count.
func TestGridWrappersMatchSerial(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(Options) (any, error)
	}{
		{"survey", func(o Options) (any, error) {
			return Survey(ctx, GridSpec{MaxLen: 5, MaxD: 9, Method: core.MethodExact}, o)
		}},
		{"degrees", func(o Options) (any, error) { return DegreeGrid(ctx, GridSpec{MaxLen: 5, MaxD: 8}, o) }},
		{"wiener", func(o Options) (any, error) { return WienerGrid(ctx, GridSpec{MaxLen: 4, MaxD: 7}, o) }},
	} {
		want, err := tc.run(Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := tc.run(Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: 4 workers diverge from 1:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// Cancellation mid-grid: the stream closes early and Run reports the
// context error with an ordered prefix of results.
func TestRunCancellationMidGrid(t *testing.T) {
	const n = 40
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	fn := func(ctx context.Context, s *core.Scratch, task Task) (any, error) {
		mu.Lock()
		started++
		if started == n/4 {
			cancel()
		}
		mu.Unlock()
		return task.Seq, nil
	}
	results, err := Run(ctx, fakeTasks(n), fn, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) >= n {
		t.Fatalf("expected a strict prefix, got all %d results", len(results))
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("result %d has Seq=%d: prefix not ordered", i, r.Seq)
		}
	}
}

// A cancelled classification grid surfaces the context error.
func TestClassifyGridCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ClassifyGrid(ctx, GridSpec{MaxLen: 5, MaxD: 9}, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Progress reports are serialized, monotone and complete.
func TestProgressReporting(t *testing.T) {
	const n = 25
	var calls []int
	fn := func(ctx context.Context, s *core.Scratch, task Task) (any, error) { return nil, nil }
	_, err := Run(context.Background(), fakeTasks(n), fn, Options{
		Workers:  4,
		Progress: func(done, total int) { calls = append(calls, done*1000+total) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("%d progress calls, want %d", len(calls), n)
	}
	for i, c := range calls {
		if c != (i+1)*1000+n {
			t.Fatalf("call %d reported %d/%d, want %d/%d", i, c/1000, c%1000, i+1, n)
		}
	}
}

// Worker errors are attached to their result and surfaced by the grid
// wrappers.
func TestTaskErrorPropagation(t *testing.T) {
	boom := fmt.Errorf("boom")
	fn := func(ctx context.Context, s *core.Scratch, task Task) (any, error) {
		if task.Seq == 3 {
			return nil, boom
		}
		return task.Seq, nil
	}
	results, err := Run(context.Background(), fakeTasks(8), fn, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if (r.Err != nil) != (i == 3) {
			t.Errorf("result %d: err = %v", i, r.Err)
		}
	}
}

func TestEmptyTaskList(t *testing.T) {
	results, err := Run(context.Background(), nil, func(ctx context.Context, s *core.Scratch, task Task) (any, error) {
		return nil, nil
	}, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("got %d results, err %v", len(results), err)
	}
}
