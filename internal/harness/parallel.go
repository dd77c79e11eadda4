package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"rest/internal/obs"
	"rest/internal/sim"
	"rest/internal/workload"
)

// The sweep engine. Every cell of the workload × config grid is an
// independent simulation: world.Build assembles a fully self-contained World
// (its own memory, allocator, token register with a per-world seeded RNG,
// cache hierarchy, predictor and core), so cells can run concurrently with
// no shared mutable state. The engine guarantees that the resulting Matrix
// is byte-identical to a sequential RunMatrix at any worker count — cells
// are deterministic functions of (workload, config, scale), and results are
// assembled in grid order regardless of completion order. The determinism
// differential tests pin this guarantee.
//
// There is one engine: one unit list (gridUnits), one fixed worker pool
// reading grid indices, one cell runner, one CellEvent emitter and one
// grid-order assembly. What varies is only how units are dealt into the
// pool (see Shard): every unit for an unsharded sweep, the units Owns picks
// for a static shard — both fed in grid order — or, for the elastic pool,
// the units this process wins a lease on (elastic.go).

// ParallelOptions configures RunMatrixParallel.
type ParallelOptions struct {
	// Workers is the worker-pool size. Zero or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// FailFast cancels the cells not yet started as soon as one cell
	// fails. Off by default: every cell runs and all failures are
	// aggregated into one MatrixError.
	FailFast bool
	// CellTimeout is each cell's wall-clock watchdog (0 = none). A cell
	// that exceeds it fails with a *sim.BudgetExceededError and becomes an
	// annotated hole; its siblings keep running.
	CellTimeout time.Duration
	// CellInstrBudget caps each cell's simulated user instructions
	// (0 = the simulator's own runaway cap).
	CellInstrBudget uint64
	// Metrics gives every cell a private obs.Registry and merges them in
	// grid order into Matrix.Obs after assembly (with the harness.* sweep
	// counters added). The aggregate is byte-identical at any worker count.
	Metrics bool
	// NeedWorld declares that the caller reads RunResult.World from the
	// assembled matrix (the micro-stats tables do). It keeps those cells off
	// the persistent result store, which carries stats but no live world.
	NeedWorld bool
	// Engine selects every cell's functional-simulator engine (see
	// CellLimits.Engine). The default sim.EngineAuto resolves to the
	// decoded-block engine; the engine differential tests sweep both and
	// assert byte-identical matrices.
	Engine sim.Engine
	// TraceCache, when non-nil, deduplicates functional execution across the
	// grid: the sweep plans its cells into the cache up front, each shared
	// functional identity is captured once, and its sibling cells replay the
	// capture through their own timing models. Results stay byte-identical
	// to an uncached sweep (harness.trace_cache.* counters aside); the
	// replay differential tests pin that. One cache may be shared by
	// several sweeps.
	TraceCache *TraceCache
	// OnCell, when non-nil, receives one CellEvent per grid cell as it
	// finishes (or is skipped). Events arrive in completion order and may be
	// delivered concurrently from multiple workers; the callback must be
	// safe for concurrent use. The trace/progress/telemetry surfaces hang
	// off this stream — it reports wall-clock facts, which are explicitly
	// NOT part of the determinism contract.
	OnCell func(CellEvent)
	// Now is the event-stream clock (nil = time.Now). Injected by tests so
	// CellEvent timestamps are deterministic; the simulation itself never
	// reads it.
	Now func() time.Time
	// Shard restricts the sweep to this process's share of a distributed
	// run (the zero value runs the full grid): a static slice i/n, or the
	// elastic pool (ParseShard("auto")), which claims units via leases on
	// the shared store's lock plane and exits when the whole grid has
	// drained — across every worker, not just this one; it requires a
	// TraceCache with an attached persistent store. The returned Matrix
	// contains only the cells this process ran; reassembling the full grid
	// is a warm re-run of the unsharded sweep over the shared persistent
	// cache (every computed cell is a result-store hit, anything a killed
	// worker left behind is recomputed), which is what keeps merged reports
	// byte-identical to a single-process run at any shard count.
	Shard Shard
	// OnPlan, when non-nil, is called once before any cell runs with the
	// number of grid cells this process will execute and the full grid size.
	// Only the planner knows the owned count exactly — the shard partition
	// unit is the functional identity, not the cell (see Shard) — so this is
	// where progress meters and "shard i/n owns X of Y cells" notes get
	// their totals. Called from the sweep goroutine before workers start.
	// Elastic sweeps never call it: what this process will run is decided by
	// the pool, one claim at a time (OnElastic reports the tally instead).
	OnPlan func(owned, total int)
	// OnElastic, when non-nil, receives this worker's pool participation
	// tally once the elastic sweep drains. Ignored unless Shard is elastic.
	OnElastic func(ElasticStats)
}

// CellEvent is one cell's lifecycle report for the observability stream:
// which worker ran which grid cell, over which wall-clock window, and what
// came of it.
type CellEvent struct {
	// Worker is the worker-pool slot (0-based) that processed the cell.
	Worker int
	// Index is the cell's position in the full grid (workload-major) and
	// Total the full grid's size — also on a shard, which runs only part of
	// it, so (sweep, Index) names one cell across every process.
	Index, Total int
	Workload     string
	Config       string
	// Start and End bound the cell's execution wall-clock window. For a
	// skipped cell they are the moment the skip was decided.
	Start, End time.Time
	// Err is the cell's failure (nil on success); Skipped marks a cell never
	// started because the sweep was cancelled.
	Err     error
	Skipped bool
	// Instrs and Cycles summarize a successful cell (zero otherwise).
	Instrs, Cycles uint64
	// Source tags where a successful cell's result came from: "stream"
	// (live execution), "capture" (live execution recording a shared
	// trace), "replay" (in-memory trace cache), "disk-replay" (persistent
	// trace store) or "result-store" (memoized cell outcome). Empty for
	// failed or skipped cells. Like the timestamps, it reflects wall-clock
	// scheduling and cache warmth, not the determinism contract.
	Source string
	// Obs is the cell's private metric registry (nil unless the sweep ran
	// with Metrics). It is delivered after the cell has finished writing
	// it; receivers must treat it as read-only.
	Obs *obs.Registry
}

// EffectiveWorkers resolves the worker-pool size actually used.
func (o ParallelOptions) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellError is the failure of one grid cell, tagged with its coordinates so
// aggregated reports stay attributable.
type CellError struct {
	Workload string
	Config   string
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s: %v", e.Workload, e.Config, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// PanicError is a panic captured inside one sweep cell, converted into an
// ordinary error so a crashing cell becomes an annotated hole instead of
// taking the whole sweep process down. Stack is the panicking goroutine's
// stack trace at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface; the message carries the full stack
// so the failure stays diagnosable after aggregation.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// runContained executes one cell with panic containment: a panic anywhere
// under RunCached (workload builder, world assembly, simulation, timing
// model) comes back as a *PanicError instead of unwinding the worker
// goroutine.
func runContained(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, tc *TraceCache) (res *RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return RunCached(wl, cfg, scale, lim, tc)
}

// holeReason compresses a cell error into the one-line annotation renderers
// attach to the hole (the full error, stack included, stays in MatrixError).
func holeReason(err error) string {
	var bud *sim.BudgetExceededError
	if errors.As(err, &bud) {
		return fmt.Sprintf("watchdog: %s budget exceeded (%s)", bud.Resource, bud.Limit)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic: %v", pe.Value)
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// MatrixError aggregates every failed cell of a sweep. Cells appear in grid
// order (workload-major), not completion order, so the message is
// deterministic at any worker count.
type MatrixError struct {
	Cells []*CellError
	// Skipped counts cells never started because the sweep was cancelled
	// (FailFast or an external context cancellation).
	Skipped int
}

func (e *MatrixError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d of the sweep's cells failed", len(e.Cells))
	if e.Skipped > 0 {
		fmt.Fprintf(&b, " (%d skipped after cancellation)", e.Skipped)
	}
	for _, c := range e.Cells {
		b.WriteString("\n  ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// Unwrap exposes the per-cell errors to errors.Is/As.
func (e *MatrixError) Unwrap() []error {
	out := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		out[i] = c
	}
	return out
}

// orNil returns e as an error, or nil when no cell failed or was skipped.
func (e *MatrixError) orNil() error {
	if len(e.Cells) > 0 || e.Skipped > 0 {
		return e
	}
	return nil
}

// cellOutcome is one worker's report for one grid cell. done marks a cell
// this process ran or skipped; cells it never dealt (another shard's units,
// the rest of a stolen unit) stay zero and are left out of the Matrix.
type cellOutcome struct {
	res     *RunResult
	err     error
	done    bool
	skipped bool
}

// job is one grid cell dealt to the worker pool; unit is the elastic claim
// it runs under (nil for unsharded and static sweeps).
type job struct {
	cell int
	unit *claimedUnit
}

// sweep is one RunMatrixParallel call's state. outcomes is indexed by grid
// position and each slot is written only by the worker that ran its cell,
// so workers never collide; it is read after the pool drains.
type sweep struct {
	ctx      context.Context
	cancel   context.CancelFunc
	opt      ParallelOptions
	scale    int64
	now      func() time.Time
	wls      []workload.Workload
	cfgs     []BinaryConfig
	units    []sweepUnit
	outcomes []cellOutcome
	elastic  *elasticPool // nil unless opt.Shard is elastic
}

// RunMatrixParallel sweeps the workloads × configs grid on a worker pool.
// It is the parallel equivalent of RunMatrix and produces bit-identical
// cycle matrices at any worker count (each cell is a deterministic,
// self-contained simulation; collection order is fixed to grid order).
//
// Unlike RunMatrix, it does not stop at the first failure: every cell runs
// and all failures come back as one *MatrixError, alongside the partial
// Matrix holding the cells that did complete. With opt.FailFast (or when
// ctx is cancelled) the cells not yet started are skipped and counted in
// MatrixError.Skipped.
//
// The sweep is crash-contained and watchdogged: a cell that panics is
// recovered into a *PanicError (stack trace attached) without disturbing
// its sibling workers, and a cell that exceeds opt.CellTimeout or
// opt.CellInstrBudget fails with a *sim.BudgetExceededError. Either way the
// cell becomes an annotated hole in the partial Matrix (Matrix.Holes) and
// one entry of the grid-ordered MatrixError.
func RunMatrixParallel(ctx context.Context, wls []workload.Workload, cfgs []BinaryConfig, scale int64, opt ParallelOptions) (*Matrix, error) {
	s := &sweep{
		opt: opt, scale: scale, now: opt.Now, wls: wls, cfgs: cfgs,
		units:    gridUnits(wls, cfgs, scale, opt.CellInstrBudget),
		outcomes: make([]cellOutcome, len(wls)*len(cfgs)),
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	defer s.cancel()

	if opt.Shard.Elastic() {
		p, err := newElasticPool(s)
		if err != nil {
			return nil, err
		}
		s.elastic = p
		s.pool(opt.EffectiveWorkers(), p.deal)
		p.drainFinished()
		m, merr := s.assemble()
		if opt.Metrics && m.Obs != nil {
			p.recordObs(m.Obs)
		}
		if opt.OnElastic != nil {
			opt.OnElastic(p.stats)
		}
		return m, merr.orNil()
	}

	// Unsharded and static sweeps plan their units into the trace cache
	// before any cell runs, so capture/replay/bypass roles are a function of
	// the grid alone, not of scheduling, then deal the cells in grid order.
	owned := opt.Shard.ownership(s.units, len(s.outcomes))
	n := 0
	for _, u := range s.units {
		if owned[u.cells[0]] {
			s.plan(u)
			n += len(u.cells)
		}
	}
	if opt.OnPlan != nil {
		opt.OnPlan(n, len(s.outcomes))
	}
	s.pool(min(opt.EffectiveWorkers(), n), func(jobs chan<- job) {
		for gi, ok := range owned {
			if ok {
				jobs <- job{cell: gi}
			}
		}
	})
	m, merr := s.assemble()
	if opt.Metrics && opt.Shard.Enabled() && m.Obs != nil {
		// Shard identity and coverage, so a distributed sweep's metric
		// stream says which slice of which grid this process ran.
		m.Obs.Counter("harness.shard.index").Add(uint64(opt.Shard.Index))
		m.Obs.Counter("harness.shard.count").Add(uint64(opt.Shard.Count))
		m.Obs.Counter("harness.shard.cells").Add(uint64(n))
		m.Obs.Counter("harness.shard.cells_total").Add(uint64(len(s.outcomes)))
	}
	return m, merr.orNil()
}

// plan registers unit u's upcoming uses with the trace cache (if any). A
// process plans only the units it deals itself: planning another process's
// cells would install capture leaders no local cell executes, stranding
// local waiters and leaking the plan's refcounts. Cross-process
// deduplication rides the persistent store's single-flight capture locks.
func (s *sweep) plan(u sweepUnit) {
	if tc := s.opt.TraceCache; tc != nil {
		tc.planUnit(u.key, len(u.cells))
	}
}

// pool runs dealt cells on a fixed set of workers. deal hands grid cells to
// the pool and returns once it has none left; pool returns when every dealt
// cell has finished.
func (s *sweep) pool(workers int, deal func(jobs chan<- job)) {
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range jobs {
				if j.unit != nil {
					s.elastic.runCell(worker, j)
				} else {
					s.runCell(worker, j.cell)
				}
			}
		}(w)
	}
	deal(jobs)
	close(jobs)
	wg.Wait()
}

// cell returns grid cell gi's workload and config (the grid is
// workload-major).
func (s *sweep) cell(gi int) (workload.Workload, BinaryConfig) {
	return s.wls[gi/len(s.cfgs)], s.cfgs[gi%len(s.cfgs)]
}

// runCell runs grid cell gi on a worker and records and emits its outcome.
// The cell's watchdog is the explicit cell timeout, tightened by whatever
// remains of the context's deadline; a cell reached after cancellation (or
// past the deadline) is skipped instead, and its planned trace-cache use is
// forfeited so the cache's refcounts still drain to zero. It reports whether
// the cell ran.
func (s *sweep) runCell(worker, gi int) bool {
	wl, cfg := s.cell(gi)
	lim := CellLimits{
		MaxInstructions: s.opt.CellInstrBudget,
		Timeout:         s.opt.CellTimeout,
		Metrics:         s.opt.Metrics,
		NeedWorld:       s.opt.NeedWorld,
		Engine:          s.opt.Engine,
	}
	skip := s.ctx.Err() != nil
	if dl, ok := s.ctx.Deadline(); ok && !skip {
		rem := time.Until(dl)
		skip = rem <= 0
		if lim.Timeout == 0 || rem < lim.Timeout {
			lim.Timeout = rem
		}
	}
	if skip {
		if tc := s.opt.TraceCache; tc != nil {
			tc.forfeit(cellTraceKey(wl.Name, cfg, s.scale, s.opt.CellInstrBudget))
		}
		s.outcomes[gi] = cellOutcome{done: true, skipped: true}
		at := s.now()
		s.emit(worker, gi, at, at)
		return false
	}
	start := s.now()
	r, err := runContained(wl, cfg, s.scale, lim, s.opt.TraceCache)
	s.outcomes[gi] = cellOutcome{res: r, err: err, done: true}
	s.emit(worker, gi, start, s.now())
	if err != nil && s.opt.FailFast {
		s.cancel()
	}
	return true
}

// emit delivers cell gi's CellEvent to opt.OnCell (if set).
func (s *sweep) emit(worker, gi int, start, end time.Time) {
	if s.opt.OnCell == nil {
		return
	}
	wl, cfg := s.cell(gi)
	o := s.outcomes[gi]
	ev := CellEvent{
		Worker: worker, Index: gi, Total: len(s.outcomes),
		Workload: wl.Name, Config: cfg.Name,
		Start: start, End: end,
		Err: o.err, Skipped: o.skipped,
	}
	if o.res != nil {
		ev.Cycles = o.res.Cycles
		ev.Source = o.res.Source
		ev.Obs = o.res.Obs
		if o.res.Stats != nil {
			ev.Instrs = o.res.Stats.Instructions
		}
	}
	s.opt.OnCell(ev)
}

// assemble builds the Matrix of the cells this process ran in grid order, so
// the Matrix (and any aggregated error) is identical no matter which worker
// finished first.
func (s *sweep) assemble() (*Matrix, *MatrixError) {
	m := &Matrix{
		Cycles:  make(map[string]map[string]uint64),
		Results: make(map[string]map[string]*RunResult),
	}
	for _, c := range s.cfgs {
		m.Configs = append(m.Configs, c.Name)
	}
	merr := &MatrixError{}
	for gi := range s.outcomes {
		o := &s.outcomes[gi]
		if !o.done {
			continue
		}
		wl, cfg := s.cell(gi)
		if _, ok := m.Cycles[wl.Name]; !ok {
			m.Workloads = append(m.Workloads, wl.Name)
			m.Cycles[wl.Name] = make(map[string]uint64)
			m.Results[wl.Name] = make(map[string]*RunResult)
		}
		switch {
		case o.skipped:
			merr.Skipped++
			m.AddHole(wl.Name, cfg.Name, "skipped (sweep cancelled)")
		case o.err != nil:
			merr.Cells = append(merr.Cells, &CellError{
				Workload: wl.Name, Config: cfg.Name, Err: o.err,
			})
			m.AddHole(wl.Name, cfg.Name, holeReason(o.err))
		default:
			m.Cycles[wl.Name][cfg.Name] = o.res.Cycles
			m.Results[wl.Name][cfg.Name] = o.res
		}
	}
	if s.opt.Metrics {
		// Grid-order merge of the per-cell registries; merge errors are
		// impossible by construction (every cell registers identical
		// histogram bounds) but surfaced rather than swallowed.
		if err := m.aggregateObs(); err != nil {
			merr.Cells = append(merr.Cells, &CellError{Err: err})
		}
		if tc := s.opt.TraceCache; tc != nil {
			tc.recordObs(m.Obs)
		}
	}
	return m, merr
}
