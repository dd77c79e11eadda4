package harness

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rest/internal/persist"
)

// The elastic-pool contract: any number of -shard auto workers drain the
// grid exactly once between them (every unit ends with one completion
// marker), a merge over the shared store is byte-identical to a
// single-process sweep, killed workers are recovered by stale-lease steal
// with zero recomputation of already-published units, and a worker that
// loses a lease mid-unit abandons it without publishing a duplicate marker.

// elasticRender runs one elastic worker over the sensitivity grid and
// returns its stats plus the partial matrix.
func elasticRender(t *testing.T, tc *TraceCache, workers int) (ElasticStats, *Matrix) {
	t.Helper()
	var stats ElasticStats
	m, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: workers, TraceCache: tc, Shard: Shard{Count: elasticCount},
			OnElastic: func(s ElasticStats) { stats = s }})
	if err != nil {
		t.Fatalf("elastic sweep: %v", err)
	}
	return stats, m
}

// TestElasticNeedsStore pins the precondition: the pool coordinates through
// the shared store, so Elastic without one is a configuration error, not a
// silent fallback.
func TestElasticNeedsStore(t *testing.T) {
	t.Parallel()
	_, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs()[:1], 1,
		ParallelOptions{Shard: Shard{Count: elasticCount}})
	if err == nil || !strings.Contains(err.Error(), "shared store") {
		t.Fatalf("elastic without a store: %v", err)
	}
	_, err = RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs()[:1], 1,
		ParallelOptions{Shard: Shard{Count: elasticCount}, TraceCache: NewTraceCache()})
	if err == nil || !strings.Contains(err.Error(), "shared store") {
		t.Fatalf("elastic without a disk tier: %v", err)
	}
}

// TestElasticSoloDrain pins the one-worker pool: it claims every unit
// fresh, computes the whole grid, publishes one marker per unit, and a
// merge run over the store is byte-identical to the no-cache baseline.
func TestElasticSoloDrain(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1, Shard{})
	url := shardCacheServer(t)

	tc, pc := httpTC(t, url, persist.Options{})
	stats, m := elasticRender(t, tc, 2)
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	units := UnitCount(wls, cfgs, 1, 0)
	if stats.Units != units || stats.Done != units || stats.Claimed != units {
		t.Fatalf("solo pool did not drain cleanly: %+v (units %d)", stats, units)
	}
	if stats.Steals != 0 || stats.LeaseLost != 0 || stats.Skipped != 0 {
		t.Fatalf("solo pool saw contention out of nowhere: %+v", stats)
	}
	if stats.CellsRun != len(wls)*len(cfgs) {
		t.Fatalf("solo pool ran %d cells, want %d", stats.CellsRun, len(wls)*len(cfgs))
	}
	cells := 0
	for _, wl := range m.Workloads {
		cells += len(m.Cycles[wl])
	}
	if cells != len(wls)*len(cfgs) {
		t.Fatalf("solo matrix holds %d cells, want the full grid", cells)
	}
	markers, err := pc.ListMarkers(ElasticMarkerPrefix)
	if err != nil || len(markers) != units {
		t.Fatalf("markers after drain: %v, %v (want %d)", markers, err, units)
	}

	tcM, _ := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4, Shard{})
	if merged != baseline {
		t.Fatalf("elastic merge differs from single-process baseline")
	}
}

// TestElasticPoolMergeByteIdentity is the multi-worker differential: three
// simulated worker processes (fresh TraceCache + Cache each, one shared
// HTTP store) drain the pool concurrently; between them every unit is done
// exactly once, and the merge is byte-identical to the baseline.
func TestElasticPoolMergeByteIdentity(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1, Shard{})
	url := shardCacheServer(t)

	const pool = 3
	stats := make([]ElasticStats, pool)
	var wg sync.WaitGroup
	for i := 0; i < pool; i++ {
		tc, _ := httpTC(t, url, persist.Options{})
		wg.Add(1)
		go func(i int, tc *TraceCache) {
			defer wg.Done()
			stats[i], _ = elasticRender(t, tc, 1)
		}(i, tc)
	}
	wg.Wait()

	units := UnitCount(subset(t, "lbm"), Fig8SensitivityConfigs(), 1, 0)
	done, claimed := 0, 0
	for _, s := range stats {
		done += s.Done
		claimed += s.Claimed
		if s.Units != units {
			t.Fatalf("worker disagreed on the unit count: %+v", s)
		}
	}
	// Exactly-once: markers are published under an exclusive claim, so the
	// pool-wide done tally is the unit count, not a multiple of it.
	if done != units {
		t.Fatalf("pool published %d completions for %d units: %+v", done, units, stats)
	}
	if claimed < units {
		t.Fatalf("pool claimed %d of %d units", claimed, units)
	}

	tcM, pcM := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4, Shard{})
	if merged != baseline {
		t.Fatalf("pool merge differs from single-process baseline")
	}
	if c := pcM.Counters(); c.ResultHits == 0 {
		t.Fatalf("merge recomputed everything: %+v", c)
	}
}

// countingBackend counts the completion-marker listings a cache server
// answers (every ListMarkers is one List of the meta namespace).
type countingBackend struct {
	persist.Backend
	metaLists atomic.Int64
}

func (b *countingBackend) List(kind string) ([]persist.Stat, error) {
	if kind == "meta" {
		b.metaLists.Add(1)
	}
	return b.Backend.List(kind)
}

// TestElasticDrainWaitsPerCell pins the pool's coordination cost: a worker
// whose every slot is busy waits for its own unit instead of waking on the
// store's epoch, which its own lock traffic bumps several times per cell;
// each such wake costs an epoch long-poll and a marker listing. A one-slot
// worker draining a grid alone always has either its slot busy or a unit
// to claim, so it never parks; what it still spends is the initial scan,
// one rescan per finished unit when the epoch moved, and the long-polls
// that signal it.
func TestElasticDrainWaitsPerCell(t *testing.T) {
	t.Parallel()
	store := &countingBackend{Backend: persist.NewMemBackend()}
	mux := http.NewServeMux()
	persist.NewCacheServer(store).Register(mux)
	var epochPolls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/epoch") {
			epochPolls.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	tc, _ := httpTC(t, ts.URL, persist.Options{})
	wls, cfgs := subset(t, "lbm", "xalanc"), Fig8SensitivityConfigs()
	var stats ElasticStats
	if _, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 1, TraceCache: tc, Shard: Shard{Count: elasticCount},
			OnElastic: func(s ElasticStats) { stats = s }}); err != nil {
		t.Fatalf("elastic sweep: %v", err)
	}
	cells := stats.CellsRun
	if cells != len(wls)*len(cfgs) {
		t.Fatalf("solo worker ran %d cells, want the full grid of %d: %+v", cells, len(wls)*len(cfgs), stats)
	}
	if stats.DrainWaits != 0 {
		t.Errorf("solo worker parked %d times for %d cells computed: %+v", stats.DrainWaits, cells, stats)
	}
	if n := epochPolls.Load(); n > int64(stats.Units+2) {
		t.Errorf("%d epoch long-polls for %d units (%d cells) computed", n, stats.Units, cells)
	}
	if n := store.metaLists.Load(); n > int64(stats.Units+1) {
		t.Errorf("%d marker listings for %d units (%d cells) computed", n, stats.Units, cells)
	}
}

// TestElasticSecondRunRecomputesNothing pins the published-unit guarantee
// from the ISSUE's acceptance gate: a unit whose marker is up is never
// recomputed. A second elastic pass over a drained store claims nothing and
// runs zero cells — the initial marker scan already accounts for the grid.
func TestElasticSecondRunRecomputesNothing(t *testing.T) {
	t.Parallel()
	url := shardCacheServer(t)
	tc1, _ := httpTC(t, url, persist.Options{})
	elasticRender(t, tc1, 2)

	tc2, pc2 := httpTC(t, url, persist.Options{})
	stats, m := elasticRender(t, tc2, 2)
	if stats.CellsRun != 0 || stats.Done != 0 {
		t.Fatalf("second pass recomputed published units: %+v", stats)
	}
	if len(m.Workloads) != 0 {
		t.Fatalf("second pass produced cells: %+v", m.Workloads)
	}
	if c := pc2.Counters(); c.Stores != 0 {
		t.Fatalf("second pass grew the store: %+v", c)
	}
}

// TestElasticKilledWorkerSteal pins recovery: a worker that died holding a
// unit claim (the lease is on the books, never renewed) is stolen once
// stale, and the pool still drains the full grid with that unit computed by
// the survivor.
func TestElasticKilledWorkerSteal(t *testing.T) {
	t.Parallel()
	url := shardCacheServer(t)

	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	units := gridUnits(wls, cfgs, 1, 0)
	grid := elasticGridID(units, 1)

	// The dead worker: holds unit 0's claim, renews nothing, publishes
	// nothing.
	dead, err := persist.NewHTTPBackend(url, persist.HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := dead.TryLease(elasticClaimName(grid, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	time.Sleep(60 * time.Millisecond)

	tc, _ := httpTC(t, url, persist.Options{StaleLockAge: 50 * time.Millisecond})
	stats, _ := elasticRender(t, tc, 2)
	if stats.Done != len(units) {
		t.Fatalf("survivor did not drain the grid: %+v", stats)
	}
	if stats.Steals == 0 {
		t.Fatalf("dead worker's claim was never stolen: %+v", stats)
	}
}

// TestElasticLeaseLostAbandons pins the renewal race from the other side: a
// worker that loses its lease mid-unit (it was presumed dead but wasn't)
// must abandon the unit — no completion marker, no overwrite of the
// thief's — while the rest of its pool run proceeds normally. The steal is
// injected deterministically from the first cell's completion hook, so no
// clocks or sleeps decide the outcome.
func TestElasticLeaseLostAbandons(t *testing.T) {
	t.Parallel()
	url := shardCacheServer(t)

	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	units := gridUnits(wls, cfgs, 1, 0)
	grid := elasticGridID(units, 1)

	thief, err := persist.NewHTTPBackend(url, persist.HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	// The victim: lease auto-renewal off, so the steal goes unnoticed until
	// the pre-publish synchronous renewal — the exact race under test.
	vb, err := persist.NewHTTPBackend(url, persist.HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	vpc, err := persist.OpenBackend(vb, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vpc.Close() })
	vtc := NewTraceCache()
	vtc.AttachDisk(vpc)

	const thiefMarker = `{"worker":"thief"}`
	var once sync.Once
	var stolenUnit int
	var stats ElasticStats
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 1, TraceCache: vtc, Shard: Shard{Count: elasticCount},
			OnElastic: func(s ElasticStats) { stats = s },
			OnCell: func(ev CellEvent) {
				once.Do(func() {
					// Mid-unit, after the victim's first cell: a peer judges the
					// victim dead, breaks its lease, takes the unit over and
					// publishes its own completion marker.
					for ui, u := range units {
						for _, gi := range u.cells {
							if gi == ev.Index {
								stolenUnit = ui
							}
						}
					}
					name := elasticClaimName(grid, stolenUnit)
					if err := thief.BreakLock(name); err != nil {
						t.Errorf("thief break: %v", err)
					}
					l, err := thief.TryLease(name)
					if err != nil {
						t.Errorf("thief lease: %v", err)
						return
					}
					if err := thief.Put("meta", elasticMarkerName(grid, stolenUnit), []byte(thiefMarker)); err != nil {
						t.Errorf("thief marker: %v", err)
					}
					l.Release()
				})
			}})
	if err != nil {
		t.Fatalf("victim's pool run failed outright: %v", err)
	}
	if stats.LeaseLost != 1 {
		t.Fatalf("victim did not record the dispossession: %+v", stats)
	}
	if stats.Done != len(units)-1 {
		t.Fatalf("victim published %d of %d units despite losing one: %+v", stats.Done, len(units), stats)
	}
	// The thief's marker survives: the victim abandoned instead of
	// publishing a duplicate.
	raw, err := vpc.GetMarker(elasticMarkerName(grid, stolenUnit))
	if err != nil || string(raw) != thiefMarker {
		t.Fatalf("stolen unit's marker: %q, %v (want the thief's)", raw, err)
	}
	// The victim's own cells — including the stolen unit's, all computed
	// before the loss was observable — stay internally consistent, and a
	// merge over the store is still byte-identical to the baseline: the
	// duplicate compute was idempotent.
	if len(m.Workloads) == 0 {
		t.Fatalf("victim's partial matrix is empty")
	}
	baseline, _ := sensRender(t, NewTraceCache(), 1, Shard{})
	tcM, _ := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4, Shard{})
	if merged != baseline {
		t.Fatalf("merge after the race differs from the baseline")
	}
}

// TestElasticChaosDrains pins the fault posture over the pool: with the
// storage fault plane injecting errors around every cache op, the pool
// still drains (fail-open claims at worst duplicate compute) and the merge
// stays byte-identical.
func TestElasticChaosDrains(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1, Shard{})
	url := shardCacheServer(t)

	spec, err := persist.ParseChaosSpec("seed=11,err=0.15,torn=0.05")
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := httpTC(t, url, persist.Options{Chaos: spec, Retries: 1})
	if _, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: 2, TraceCache: tc, Shard: Shard{Count: elasticCount}}); err != nil {
		t.Fatalf("elastic under chaos: %v", err)
	}

	tcM, _ := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4, Shard{})
	if merged != baseline {
		t.Fatalf("chaos-elastic merge differs from the baseline")
	}
}

// TestElasticObsCounters pins the pool's observability surface: a metrics
// run exports the harness.elastic.* scheduling counters.
func TestElasticObsCounters(t *testing.T) {
	t.Parallel()
	url := shardCacheServer(t)
	tc, _ := httpTC(t, url, persist.Options{})
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 2, TraceCache: tc, Shard: Shard{Count: elasticCount}, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	units := uint64(UnitCount(wls, cfgs, 1, 0))
	want := map[string]uint64{
		"harness.elastic.units":       units,
		"harness.elastic.claimed":     units,
		"harness.elastic.done":        units,
		"harness.elastic.steals":      0,
		"harness.elastic.lease_lost":  0,
		"harness.elastic.cells":       uint64(len(wls) * len(cfgs)),
		"harness.elastic.cells_total": uint64(len(wls) * len(cfgs)),
	}
	got := map[string]uint64{}
	for _, mt := range m.Obs.Snapshot() {
		got[mt.Name] = mt.Value
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %d (present=%t), want %d", name, g, ok, v)
		}
	}
}

// TestElasticUnitNumbering pins the unit enumeration against the static
// partition: first-appearance order over the grid, every cell in exactly
// one unit, and the grid ID scoping claims to one exact sweep.
func TestElasticUnitNumbering(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	units := gridUnits(wls, cfgs, 1, 0)
	if len(units) == 0 || len(units) >= len(wls)*len(cfgs) {
		t.Fatalf("degenerate unit partition: %d units over %d cells", len(units), len(wls)*len(cfgs))
	}
	seen := map[int]bool{}
	prevFirst := -1
	for ui, u := range units {
		if len(u.cells) == 0 {
			t.Fatalf("unit %d has no cells", ui)
		}
		if u.cells[0] <= prevFirst {
			t.Fatalf("units not in first-appearance order: unit %d starts at cell %d after %d", ui, u.cells[0], prevFirst)
		}
		prevFirst = u.cells[0]
		for _, gi := range u.cells {
			if seen[gi] {
				t.Fatalf("cell %d in two units", gi)
			}
			seen[gi] = true
		}
	}
	if len(seen) != len(wls)*len(cfgs) {
		t.Fatalf("units cover %d of %d cells", len(seen), len(wls)*len(cfgs))
	}
	if UnitCount(wls, cfgs, 1, 0) != len(units) {
		t.Fatalf("UnitCount disagrees with the enumeration")
	}
	if elasticGridID(units, 1) == elasticGridID(units[:len(units)-1], 1) {
		t.Fatalf("grid ID insensitive to the unit list")
	}
	if elasticGridID(units, 1) != elasticGridID(units, 1) {
		t.Fatalf("grid ID not deterministic")
	}
}

// TestElasticCancellation pins the deadline story: a cancelled pool returns
// promptly (empty matrix or skipped holes) instead of hanging on the drain
// loop waiting for markers that will never land.
func TestElasticCancellation(t *testing.T) {
	t.Parallel()
	url := shardCacheServer(t)
	tc, _ := httpTC(t, url, persist.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMatrixParallel(ctx, subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: 2, TraceCache: tc, Shard: Shard{Count: elasticCount}})
	var merr *MatrixError
	if err != nil && !errors.As(err, &merr) {
		t.Fatalf("cancelled pool: %v", err)
	}
}
