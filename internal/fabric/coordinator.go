package fabric

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Coordinator drives one fabric run: it partitions the grid into
// class-affine shards, leases them to workers, keeps live leases
// renewed, polls completed cells into the ledger (deduplicated by cell
// index, so the ledger never holds a cell twice), requeues the remainder
// of any lease that dies (worker crash, lease expiry, report failure),
// and lets idle workers steal the tails of straggler shards. Because
// every completed cell is chained into the ledger before it counts as
// done, killing the coordinator at any instant loses at most the cells
// in flight — a resumed run recomputes exactly the cells the ledger does
// not hold.
type Coordinator struct {
	sp     Spec
	ledger *Ledger
	opts   Options
	c      *Counters

	mu        sync.Mutex
	done      map[int]bool
	doneCount int
	total     int
	pending   []*Shard
	active    map[string]*activeShard
	unsynced  int
	nonce     int
}

// Options tunes a run. Workers and Ledger are required.
type Options struct {
	// Workers are the lease executors. At least one.
	Workers []Worker
	// Shards is the primary shard-slot count (default
	// max(4, 2×len(Workers))). Class→shard affinity holds per slot
	// count: the same class maps to the same slot in every run that
	// uses the same count.
	Shards int
	// LeaseTTL is how long a lease survives without renewal
	// (default 10s). The coordinator renews at TTL/3.
	LeaseTTL time.Duration
	// Poll is the report-poll and idle-retry interval (default 100ms).
	Poll time.Duration
	// ReportMax bounds cells fetched per report call (default 256).
	ReportMax int
	// StealThreshold is the minimum unrecorded remainder of a straggler
	// worth splitting (default 4 cells).
	StealThreshold int
	// SyncEvery syncs the ledger to stable storage after this many
	// appends (default 32; every append also lands in the kernel
	// immediately — SIGKILL loses nothing, only power loss can).
	SyncEvery int
	// Progress, when non-nil, is called after every recorded cell with
	// (recorded, total). Serialized.
	Progress func(done, total int)
	// Logf, when non-nil, receives coordinator events (lease grants,
	// failures, steals, resume summary).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 2 * len(o.Workers)
		if o.Shards < 4 {
			o.Shards = 4
		}
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	if o.ReportMax < 1 {
		o.ReportMax = 256
	}
	if o.StealThreshold < 2 {
		o.StealThreshold = 4
	}
	if o.SyncEvery < 1 {
		o.SyncEvery = 32
	}
	return o
}

// activeShard tracks a leased shard for steal decisions.
type activeShard struct {
	shard   *Shard
	worker  string
	stolen  map[int]bool // cell indexes already split off to thieves
	started time.Time
}

// NewCoordinator plans a run over ledger (already created or opened for
// the same spec). Cells the ledger holds are done before the first lease
// is granted — that is all resume is.
func NewCoordinator(sp Spec, ledger *Ledger, opts Options) (*Coordinator, error) {
	sp, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers")
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		sp:     sp,
		ledger: ledger,
		opts:   opts,
		c:      &Counters{},
		done:   make(map[int]bool),
		active: make(map[string]*activeShard),
	}
	cells := sp.Cells()
	c.total = len(cells)
	for _, r := range ledger.Records() {
		if r.I < 0 || r.I >= c.total {
			return nil, fmt.Errorf("fabric: ledger cell index %d outside grid of %d cells", r.I, c.total)
		}
		if !c.done[r.I] {
			c.done[r.I] = true
			c.doneCount++
		}
	}
	if c.doneCount > 0 {
		c.c.Resumes.Add(1)
		c.c.ResumedCells.Add(uint64(c.doneCount))
	}
	remaining := make([]CellRef, 0, c.total-c.doneCount)
	for _, cell := range cells {
		if !c.done[cell.I] {
			remaining = append(remaining, cell)
		}
	}
	c.pending = Partition(remaining, opts.Shards)
	c.c.ShardsTotal.Store(uint64(len(c.pending)))
	c.c.CellsTotal.Store(uint64(c.total))
	c.c.CellsDone.Store(uint64(c.doneCount))
	c.logf("grid %s: %d cells, %d already in ledger, %d shards to sweep across %d workers",
		string(sp.Op), c.total, c.doneCount, len(c.pending), len(opts.Workers))
	return c, nil
}

// Counters exposes the run's live counters (for /metrics and summaries).
func (c *Coordinator) Counters() *Counters { return c.c }

// Total returns the grid's cell count.
func (c *Coordinator) Total() int { return c.total }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Run drives the sweep until the ledger holds every cell or ctx dies.
// On success the ledger is synced and complete; the result set is
// ResultSet(c.Ledger().Records()).
func (c *Coordinator) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i, w := range c.opts.Workers {
		wg.Add(1)
		go func(idx int, w Worker) {
			defer wg.Done()
			c.workerLoop(ctx, w)
		}(i, w)
	}
	wg.Wait()
	c.mu.Lock()
	finished := c.doneCount == c.total
	c.mu.Unlock()
	if err := c.ledger.Sync(); err != nil {
		return err
	}
	if !finished {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("fabric: run stopped with %d/%d cells recorded", c.doneCount, c.total)
	}
	return nil
}

// workerLoop feeds one worker shards until the grid is complete.
func (c *Coordinator) workerLoop(ctx context.Context, w Worker) {
	failures := 0
	for {
		if ctx.Err() != nil {
			return
		}
		sh := c.nextShard()
		if sh == nil {
			c.mu.Lock()
			finished := c.doneCount == c.total
			idle := len(c.pending) == 0 && len(c.active) == 0
			c.mu.Unlock()
			if finished {
				return
			}
			if idle {
				// Nothing pending, nothing active, grid incomplete: another
				// worker just requeued, or everything failed — retry.
				time.Sleep(c.opts.Poll)
				continue
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.opts.Poll):
			}
			continue
		}
		if err := c.runShard(ctx, w, sh); err != nil {
			failures++
			c.c.LeaseFailures.Add(1)
			c.logf("worker %s shard %s: %v (failure %d)", w.Name(), sh.ID, err, failures)
			// Exponential backoff per worker so a dead remote does not
			// spin; the shard itself was already requeued.
			backoff := c.opts.Poll << uint(min(failures, 5))
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			continue
		}
		failures = 0
	}
}

// nextShard takes a pending shard, or steals a straggler's tail when
// none is pending. Returns nil when there is nothing to do right now.
func (c *Coordinator) nextShard() *Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) > 0 {
		sh := c.pending[0]
		c.pending = c.pending[1:]
		if cells := c.unrecordedLocked(sh.Cells); len(cells) == 0 {
			return nil // fully recorded meanwhile (thief finished it)
		} else if len(cells) != len(sh.Cells) {
			sh = &Shard{ID: sh.ID, Cells: cells, Stolen: sh.Stolen}
		}
		return sh
	}
	return c.stealLocked()
}

// stealLocked splits the tail of the straggler with the most unrecorded,
// unstolen cells. Thieves and victims may compute overlapping cells near
// the split point; the record path keeps the ledger single-copy.
func (c *Coordinator) stealLocked() *Shard {
	var victim *activeShard
	var victimRemainder []CellRef
	for _, a := range c.active {
		var rem []CellRef
		for _, cell := range c.unrecordedLocked(a.shard.Cells) {
			if !a.stolen[cell.I] {
				rem = append(rem, cell)
			}
		}
		if len(rem) >= c.opts.StealThreshold && (victim == nil || len(rem) > len(victimRemainder)) {
			victim, victimRemainder = a, rem
		}
	}
	if victim == nil {
		return nil
	}
	// Take the tail half: the victim's lease computes cells in shard
	// order from the front, so the tail is what it will reach last.
	tail := victimRemainder[len(victimRemainder)/2:]
	for _, cell := range tail {
		victim.stolen[cell.I] = true
	}
	c.nonce++
	c.c.Steals.Add(1)
	sh := &Shard{ID: fmt.Sprintf("%s-steal%d", victim.shard.ID, c.nonce), Cells: tail, Stolen: true}
	c.logf("stealing %d cells from straggler %s (worker %s) as %s", len(tail), victim.shard.ID, victim.worker, sh.ID)
	return sh
}

// unrecordedLocked filters cells to those the ledger does not hold.
func (c *Coordinator) unrecordedLocked(cells []CellRef) []CellRef {
	out := make([]CellRef, 0, len(cells))
	for _, cell := range cells {
		if !c.done[cell.I] {
			out = append(out, cell)
		}
	}
	return out
}

// requeue puts a shard's unrecorded remainder back on the pending queue.
func (c *Coordinator) requeue(sh *Shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.unrecordedLocked(sh.Cells)
	if len(cells) == 0 {
		return
	}
	c.c.ShardsRequeued.Add(1)
	c.pending = append(c.pending, &Shard{ID: sh.ID, Cells: cells, Stolen: sh.Stolen})
}

// record appends one completed cell to the ledger unless it is already
// there (a stolen/requeued overlap). This is the single write path: the
// ledger mutex is c.mu, appends are chained in arrival order, and the
// dedupe here is what guarantees zero duplicate cells.
func (c *Coordinator) record(rec Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.I < 0 || rec.I >= c.total {
		return fmt.Errorf("fabric: worker reported cell index %d outside grid of %d cells", rec.I, c.total)
	}
	if c.done[rec.I] {
		c.c.DuplicatesDropped.Add(1)
		return nil
	}
	if err := c.ledger.Append(rec); err != nil {
		return err
	}
	c.done[rec.I] = true
	c.doneCount++
	c.c.CellsDone.Store(uint64(c.doneCount))
	c.c.LedgerAppends.Add(1)
	c.unsynced++
	if c.unsynced >= c.opts.SyncEvery {
		c.unsynced = 0
		if err := c.ledger.Sync(); err != nil {
			return err
		}
	}
	if c.opts.Progress != nil {
		c.opts.Progress(c.doneCount, c.total)
	}
	return nil
}

// runShard leases sh on w and pumps reports into the ledger until the
// lease completes, fails, or ctx dies. Any early exit requeues the
// shard's unrecorded remainder.
func (c *Coordinator) runShard(ctx context.Context, w Worker, sh *Shard) error {
	c.mu.Lock()
	c.nonce++
	leaseID := fmt.Sprintf("%s.%s.%d", sh.ID, w.Name(), c.nonce)
	a := &activeShard{shard: sh, worker: w.Name(), stolen: make(map[int]bool), started: time.Now()}
	c.active[leaseID] = a
	c.c.ShardsActive.Store(uint64(len(c.active)))
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.active, leaseID)
		c.c.ShardsActive.Store(uint64(len(c.active)))
		c.mu.Unlock()
	}()

	state, err := w.Start(ctx, c.sp, leaseID, sh.Cells, c.opts.LeaseTTL)
	if err != nil {
		c.requeue(sh)
		return fmt.Errorf("lease: %w", err)
	}
	c.c.LeasesGranted.Add(1)
	c.logf("leased %s (%d cells) to %s until %s", sh.ID, state.Total, w.Name(), state.Deadline.Format(time.RFC3339))

	from := 0
	lastRenew := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			_ = w.Cancel(context.WithoutCancel(ctx), leaseID)
			c.requeue(sh)
			return err
		}
		chunk, err := w.Report(ctx, leaseID, from, c.opts.ReportMax)
		if err != nil {
			c.requeue(sh)
			return fmt.Errorf("report: %w", err)
		}
		for _, payload := range chunk.Payloads {
			rec, err := decodeRecord(payload)
			if err != nil {
				c.requeue(sh)
				return err
			}
			if err := c.record(rec); err != nil {
				c.requeue(sh)
				return err
			}
		}
		from = chunk.Next
		if chunk.Done && len(chunk.Payloads) == 0 {
			if chunk.Err != "" {
				// Partial lease (expiry, cancellation, failed cell): the
				// cells it did finish are recorded; requeue the rest.
				c.requeue(sh)
				c.logf("lease %s on %s ended early after %d cells: %s", sh.ID, w.Name(), from, chunk.Err)
				return nil
			}
			return nil
		}
		if time.Since(lastRenew) > c.opts.LeaseTTL/3 {
			if _, err := w.Start(ctx, c.sp, leaseID, sh.Cells, c.opts.LeaseTTL); err != nil {
				c.requeue(sh)
				return fmt.Errorf("renew: %w", err)
			}
			c.c.LeaseRenewals.Add(1)
			lastRenew = time.Now()
		}
		if len(chunk.Payloads) == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(c.opts.Poll):
			}
		}
	}
}

// PendingSummary describes what is left to do (for -verify and logs).
func (c *Coordinator) PendingSummary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	missing := make([]int, 0)
	for i := 0; i < c.total && len(missing) < 8; i++ {
		if !c.done[i] {
			missing = append(missing, i)
		}
	}
	sort.Ints(missing)
	return fmt.Sprintf("%d/%d cells recorded, first missing %v", c.doneCount, c.total, missing)
}
