package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"rest/internal/obs"
	"rest/internal/persist"
)

// The elastic dealing policy: work-stealing over the shared artifact store.
//
// A static shard (shard.go) takes its units up front, so one slow or killed
// shard strands its slice and caps the pool at the slowest worker. The
// elastic policy deals by claim instead: every worker sees the same unit
// list (gridUnits), and claims units one lease at a time on the store's lock
// plane, feeding each claimed unit's cells into the sweep engine's worker
// pool like any other dealt cell. A completed unit is recorded by a tiny
// completion marker in the store's meta namespace; the grid is drained when
// every unit has one. Recovery is built from the same two primitives —
//
//   - a worker that dies stops renewing its leases, they age stale, and any
//     idle worker steals the units and recomputes only what the dead worker
//     never published (its finished cells are result-store hits);
//   - a worker whose lease is stolen while it still runs (it was presumed
//     dead but wasn't) observes the loss and abandons the unit without
//     publishing its marker — publishing under a lost lease would race the
//     thief. The cells it already computed are harmless: content-addressed
//     stores make duplicate publication idempotent, so bytes never differ.
//
// Idle workers do not poll-spin: they park on the store's epoch long-poll
// (persist.Cache.WaitChange) and wake when a marker lands or a lease moves.
// Every coordination failure fails open in the store's usual direction —
// an unanswerable lock plane grants the claim (worst case a duplicated
// unit), an unlistable meta namespace retries at the next wake — so chaos
// degrades the pool to recompute, never to a wrong byte or a hang.

// ElasticStats summarizes one worker's participation in an elastic pool.
type ElasticStats struct {
	Units      int // steal units in the grid
	Claimed    int // claims granted to this worker (incl. steals and skips)
	Steals     int // claims acquired by breaking a stale holder's lease
	Done       int // units this worker computed and marked complete
	Skipped    int // claims released because the unit was already marked
	LeaseLost  int // units abandoned after losing the lease mid-unit
	DrainWaits int // times this worker parked waiting on the pool
	CellsRun   int // grid cells this worker executed
}

// ElasticMarkerPrefix namespaces completion markers within the store's meta
// objects (beside the manifest, exempt from the byte cap and eviction).
const ElasticMarkerPrefix = "elastic-"

// elasticGridID digests the unit list so claim and marker names are scoped
// to one exact grid: two different sweeps sharing a store can both run
// elastically without touching each other's units.
func elasticGridID(units []sweepUnit, scale int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "elastic|v1|scale=%d|units=%d\n", scale, len(units))
	for _, u := range units {
		io.WriteString(h, funcIdentity(u.key).String())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func elasticMarkerName(grid string, u int) string {
	return fmt.Sprintf("%s%s-u%03d", ElasticMarkerPrefix, grid, u)
}

func elasticClaimName(grid string, u int) string {
	return fmt.Sprintf("claim-%s-u%03d", grid, u)
}

// elasticWaitBound caps one idle park. Short enough that stale-lease
// takeover is probed about once a second even when no epoch event fires
// (a killed worker produces none), long enough that a parked worker costs
// one request a second, not a polling storm.
const elasticWaitBound = time.Second

// elasticPool is one sweep's claim coordinator. Its bookkeeping (stats,
// markerDone, inflight, slotsFree) belongs to the sweep goroutine, which
// runs deal and drains unitDone; workers only hand finished units back over
// unitDone.
type elasticPool struct {
	s          *sweep
	store      *persist.Cache
	grid       string
	unitDone   chan *claimedUnit
	stats      ElasticStats
	markerDone []bool
	doneCount  int
	inflight   []bool
	// slotsFree caps this process's claimed units in flight at one per
	// worker: a unit is claimed only when a worker can start it, so no
	// claim sits queued here while an idle peer could have taken it.
	slotsFree int
}

// claimedUnit is one unit this worker holds a lease on, in flight through
// the sweep's worker pool. The worker that finishes its last cell publishes
// it (publish) and hands it back to the coordinator.
type claimedUnit struct {
	index   int
	claim   *persist.Claim
	pending atomic.Int32 // cells not yet through the pool
	ran     atomic.Int32 // cells executed
	skipped atomic.Bool  // a cell was skipped after cancellation
	lost    atomic.Bool  // the lease was stolen mid-unit
	done    bool         // completion marker published (set before handing back)
}

func newElasticPool(s *sweep) (*elasticPool, error) {
	var store *persist.Cache
	if s.opt.TraceCache != nil {
		store = s.opt.TraceCache.diskStore()
	}
	if store == nil {
		return nil, errors.New("harness: an elastic sweep needs a trace cache with an attached shared store")
	}
	n := len(s.units)
	return &elasticPool{
		s:     s,
		store: store,
		grid:  elasticGridID(s.units, s.scale),
		// One slot per unit: a unit is handed back at most once per claim
		// and never re-claimed before that handback is handled, so
		// publishing workers never block on it.
		unitDone:   make(chan *claimedUnit, n),
		stats:      ElasticStats{Units: n},
		markerDone: make([]bool, n),
		inflight:   make([]bool, n),
		slotsFree:  s.opt.EffectiveWorkers(),
	}, nil
}

// deal is the elastic dealing policy: claim units until the whole grid —
// across every worker of the pool, not just this one — carries completion
// markers, feeding each claimed unit's cells to the worker pool.
func (p *elasticPool) deal(jobs chan<- job) {
	ctx := p.s.ctx
	// The wake goroutine turns the store's epoch long-poll into a channel
	// the coordinator can select on; without an epoch plane (a directory
	// store) WaitChange degrades to a bounded poll tick.
	wake := make(chan struct{}, 1)
	stopWake := make(chan struct{})
	defer close(stopWake)
	go func() {
		var epoch uint64
		for {
			select {
			case <-stopWake:
				return
			default:
			}
			epoch = p.store.WaitChange(epoch, elasticWaitBound)
			select {
			case wake <- struct{}{}:
			case <-stopWake:
				return
			}
		}
	}()

	p.scan()
	for p.doneCount < len(p.s.units) && ctx.Err() == nil {
		progress := false
		for ui, u := range p.s.units {
			if p.slotsFree == 0 {
				break
			}
			if p.markerDone[ui] || p.inflight[ui] {
				continue
			}
			claim, ok := p.store.TryClaim(elasticClaimName(p.grid, ui))
			if !ok {
				continue // a live worker holds it; steal only when stale
			}
			progress = true
			p.stats.Claimed++
			if claim.Stolen {
				p.stats.Steals++
			}
			// Re-check under the claim: the unit may have completed between
			// our last scan and this grant. This is what guarantees a
			// published unit is never recomputed — the marker goes up before
			// its claim goes down, so any later claimant sees it here.
			if _, err := p.store.GetMarker(elasticMarkerName(p.grid, ui)); err == nil {
				claim.Release()
				p.markDone(ui)
				p.stats.Skipped++
				continue
			}
			p.inflight[ui] = true
			p.slotsFree--
			p.s.plan(u)
			cu := &claimedUnit{index: ui, claim: claim}
			cu.pending.Store(int32(len(u.cells)))
			for _, gi := range u.cells {
				jobs <- job{cell: gi, unit: cu}
			}
		}
		p.drainFinished()
		if p.doneCount >= len(p.s.units) || progress {
			continue
		}
		if p.slotsFree == 0 {
			// Every slot is taken: nothing can be claimed before one of
			// this worker's own units finishes, whatever the store does
			// meanwhile, so the epoch is not worth a wake (this worker's
			// own lock traffic bumps it several times per cell). Once a
			// slot frees, one rescan — only if the epoch moved — brings in
			// the markers published meanwhile, so the next claims do not
			// land on units finished elsewhere.
			select {
			case u := <-p.unitDone:
				p.handle(u)
				select {
				case <-wake:
					p.scan()
				default:
				}
			case <-ctx.Done():
			}
			continue
		}
		// Nothing claimable: every remaining unit is held by a live worker
		// or in flight here. Park until a unit finishes here or the store's
		// state moves (a marker lands, a lease ages out).
		select {
		case u := <-p.unitDone:
			p.handle(u)
		case <-wake:
			p.stats.DrainWaits++
			p.scan()
		case <-ctx.Done():
		}
	}
}

// runCell is a pool worker's step for one cell of a claimed unit. Once the
// unit's lease is lost the thief owns it: the remaining cells are forfeited
// uncomputed (whatever this worker already published is idempotent).
func (p *elasticPool) runCell(worker int, j job) {
	u := j.unit
	select {
	case <-u.claim.Lost():
		u.lost.Store(true)
		p.s.opt.TraceCache.forfeit(p.s.units[u.index].key)
	default:
		if p.s.runCell(worker, j.cell) {
			u.ran.Add(1)
		} else {
			u.skipped.Store(true)
		}
	}
	if u.pending.Add(-1) == 0 {
		p.publish(u)
	}
}

// publish finishes a unit whose cells have all been through the pool:
// unless it was abandoned or cancelled, it records the completion marker,
// then releases the claim and hands the unit back to the coordinator.
func (p *elasticPool) publish(u *claimedUnit) {
	if !u.lost.Load() && !u.skipped.Load() && p.s.ctx.Err() == nil {
		// One synchronous renewal right before publishing: a worker whose
		// lease was stolen since the last background renewal must not mark
		// the unit done (the thief is recomputing it). Any other renewal
		// failure fails open — an unanswerable lock plane never blocks
		// publication, it only risks a duplicate.
		if err := u.claim.Renew(); errors.Is(err, persist.ErrLeaseLost) {
			u.lost.Store(true)
		} else {
			marker := fmt.Sprintf("{\"unit\":%d,\"cells\":%d,\"worker\":\"pid-%d\"}\n",
				u.index, len(p.s.units[u.index].cells), os.Getpid())
			u.done = p.store.PutMarker(elasticMarkerName(p.grid, u.index), []byte(marker)) == nil
		}
	}
	u.claim.Release()
	p.unitDone <- u
}

// scan marks every unit whose completion marker is in the store.
func (p *elasticPool) scan() {
	names, err := p.store.ListMarkers(ElasticMarkerPrefix + p.grid + "-")
	if err != nil {
		return // transient: the next wake rescans
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for ui := range p.s.units {
		if set[elasticMarkerName(p.grid, ui)] {
			p.markDone(ui)
		}
	}
}

func (p *elasticPool) markDone(ui int) {
	if !p.markerDone[ui] {
		p.markerDone[ui] = true
		p.doneCount++
	}
}

// handle tallies one unit handed back by publish.
func (p *elasticPool) handle(u *claimedUnit) {
	p.inflight[u.index] = false
	p.slotsFree++
	p.stats.CellsRun += int(u.ran.Load())
	if u.lost.Load() {
		p.stats.LeaseLost++
	}
	if u.done {
		p.stats.Done++
		p.markDone(u.index)
	}
}

// drainFinished handles every unit already handed back, without blocking.
func (p *elasticPool) drainFinished() {
	for {
		select {
		case u := <-p.unitDone:
			p.handle(u)
		default:
			return
		}
	}
}

// recordObs adds the pool participation counters to a sweep registry.
// Unlike the static shard counters these describe scheduling (who claimed
// what when), so like the disk counters they sit outside the
// byte-identical-reports contract — which only ever applies to full-grid
// runs anyway.
func (p *elasticPool) recordObs(r *obs.Registry) {
	st := p.stats
	r.Counter("harness.elastic.units").Add(uint64(st.Units))
	r.Counter("harness.elastic.claimed").Add(uint64(st.Claimed))
	r.Counter("harness.elastic.steals").Add(uint64(st.Steals))
	r.Counter("harness.elastic.done").Add(uint64(st.Done))
	r.Counter("harness.elastic.skipped").Add(uint64(st.Skipped))
	r.Counter("harness.elastic.lease_lost").Add(uint64(st.LeaseLost))
	r.Counter("harness.elastic.drain_waits").Add(uint64(st.DrainWaits))
	r.Counter("harness.elastic.cells").Add(uint64(st.CellsRun))
	r.Counter("harness.elastic.cells_total").Add(uint64(len(p.s.outcomes)))
}
