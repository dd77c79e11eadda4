package harness

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rest/internal/persist"
)

// The distributed-sweep contract: shard i/n runs exactly its slice of the
// grid, shards share artifacts through one cache store (exercised here over
// the real HTTP server/client pair), and a merge — a plain full-grid run over
// the shared store — renders byte-identical reports to a single-process
// sweep at any shard count, cold or warm, at any worker count. Killed or
// duplicated shards only ever cost recomputation, never correctness.

// TestShardPartitionMath pins the pure partition: the spec grammar, exact
// coverage (every cell owned by exactly one shard), and Size accounting.
func TestShardPartitionMath(t *testing.T) {
	t.Parallel()

	for spec, want := range map[string]Shard{
		"1/1": {0, 1}, "2/4": {1, 4}, " 3 / 3 ": {2, 3}, "auto": {0, elasticCount},
	} {
		got, err := ParseShard(spec)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"", "2", "0/4", "5/4", "-1/4", "1/0", "a/b", "1/2/3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) should fail", bad)
		}
	}

	if (Shard{}).Enabled() || !(Shard{Count: 1}).Enabled() {
		t.Fatalf("Enabled: zero value must be off, 1/1 must be on")
	}
	if (Shard{}).String() != "" || (Shard{Index: 1, Count: 4}).String() != "2/4" {
		t.Fatalf("String rendering broken")
	}

	// The unit deal: every unit has exactly one owner, and after any prefix
	// of units the per-shard counts differ by at most one (the snake deal
	// never lets a shard fall behind).
	for _, n := range []int{1, 2, 3, 7} {
		counts := make([]int, n)
		for u := 0; u < 40; u++ {
			owner := -1
			for k := 0; k < n; k++ {
				if (Shard{Index: k, Count: n}).Owns(u) {
					if owner >= 0 {
						t.Fatalf("unit %d owned by shards %d and %d (n=%d)", u, owner, k, n)
					}
					owner = k
				}
			}
			if owner < 0 {
				t.Fatalf("unit %d of n=%d has no owner", u, n)
			}
			counts[owner]++
			lo, hi := counts[0], counts[0]
			for _, c := range counts {
				lo, hi = min(lo, c), max(hi, c)
			}
			if hi-lo > 1 {
				t.Fatalf("after unit %d (n=%d) shard loads %v diverge by more than 1", u, n, counts)
			}
		}
	}
	if !(Shard{}).Owns(3) {
		t.Fatalf("disabled shard must own the full grid")
	}

	// The identity partition: over a real sensitivity grid every cell is
	// owned by exactly one shard, cells sharing a functional identity (one
	// captured trace) always land on the same shard even though the grid
	// alternates flavours, and the unit loads stay balanced.
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	for _, n := range []int{2, 4} {
		ownerOf := map[traceKey]int{}
		cellOwners := make([]int, len(wls)*len(cfgs))
		for i := range cellOwners {
			cellOwners[i] = -1
		}
		for k := 0; k < n; k++ {
			owns := (Shard{Index: k, Count: n}).ownership(gridUnits(wls, cfgs, 1, 0), len(wls)*len(cfgs))
			i := 0
			for _, wl := range wls {
				for _, cfg := range cfgs {
					if owns[i] {
						if cellOwners[i] >= 0 {
							t.Fatalf("n=%d: cell %d owned by shards %d and %d", n, i, cellOwners[i], k)
						}
						cellOwners[i] = k
						key := cellTraceKey(wl.Name, cfg, 1, 0)
						if prev, seen := ownerOf[key]; seen && prev != k {
							t.Fatalf("n=%d: identity of cell %d split across shards %d and %d", n, i, prev, k)
						}
						ownerOf[key] = k
					}
					i++
				}
			}
		}
		for i, k := range cellOwners {
			if k < 0 {
				t.Fatalf("n=%d: cell %d has no owner", n, i)
			}
		}
	}
}

// shardCacheServer starts the real CacheServer over a shared MemBackend and
// returns its URL: the store every simulated shard process shares.
func shardCacheServer(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	persist.NewCacheServer(persist.NewMemBackend()).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// httpTC builds a fresh TraceCache + persist.Cache over the HTTP backend —
// one simulated shard process's worth of cache state.
func httpTC(t *testing.T, url string, opt persist.Options) (*TraceCache, *persist.Cache) {
	t.Helper()
	hb, err := persist.NewHTTPBackend(url, persist.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := persist.OpenBackend(hb, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	tc := NewTraceCache()
	tc.AttachDisk(pc)
	return tc, pc
}

// sensRender runs the sensitivity sweep (optionally one shard of it) and
// returns the rendered report plus the matrix.
func sensRender(t *testing.T, tc *TraceCache, workers int, shard Shard) (string, *Matrix) {
	t.Helper()
	wls := subset(t, "lbm")
	m, err := RunMatrixParallel(context.Background(), wls, Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: workers, TraceCache: tc, Shard: shard})
	if err != nil {
		t.Fatalf("sweep (workers=%d, shard=%s): %v", workers, shard, err)
	}
	return m.RenderOverheadTable("sensitivity") + m.CSV(), m
}

// TestShardMergeByteIdentity is the distributed differential wall: shards of
// the Fig8 sensitivity sweep and the Fig3 sweep run as separate simulated
// processes (fresh TraceCache + fresh Cache per shard, all sharing one HTTP
// cache server), then a merge run assembles the full grid from the shared
// store. The merged report must be byte-identical to the single-process
// cache-off report — at 2 and 4 shards, merging cold (first assembly) and
// warm (repeat assembly), at j=1 and j=4.
func TestShardMergeByteIdentity(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1, Shard{})

	for _, n := range []int{2, 4} {
		url := shardCacheServer(t)

		// The shard processes: cold, j=1 for half the shards and j=4 for the
		// rest so in-shard parallelism is covered too.
		sawCells := 0
		for k := 0; k < n; k++ {
			workers := 1
			if k%2 == 1 {
				workers = 4
			}
			tc, _ := httpTC(t, url, persist.Options{})
			_, m := sensRender(t, tc, workers, Shard{Index: k, Count: n})
			for _, wl := range m.Workloads {
				sawCells += len(m.Cycles[wl])
			}
		}
		if want := len(Fig8SensitivityConfigs()); sawCells != want {
			t.Fatalf("n=%d: shards ran %d cells, want %d", n, sawCells, want)
		}

		// Cold merge (first assembly from shard artifacts), then warm merge,
		// at both worker counts.
		for _, workers := range []int{1, 4} {
			tc, pc := httpTC(t, url, persist.Options{})
			merged, _ := sensRender(t, tc, workers, Shard{})
			if merged != baseline {
				t.Fatalf("n=%d j=%d: merged report differs from single-process baseline", n, workers)
			}
			if c := pc.Counters(); c.ResultHits == 0 {
				t.Fatalf("n=%d j=%d: merge recomputed everything (result hits = 0): %+v", n, workers, c)
			}
		}
	}
}

// TestShardMergeFig3 runs the same differential for the Figure 3 report.
func TestShardMergeFig3(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	base, err := RunFig3Parallel(context.Background(), wls, 1, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := base.Render()

	url := shardCacheServer(t)
	for k := 0; k < 2; k++ {
		tc, _ := httpTC(t, url, persist.Options{})
		if _, err := RunFig3Parallel(context.Background(), wls, 1,
			ParallelOptions{Workers: 1, TraceCache: tc, Shard: Shard{Index: k, Count: 2}}); err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
	}
	tc, pc := httpTC(t, url, persist.Options{})
	merged, err := RunFig3Parallel(context.Background(), wls, 1,
		ParallelOptions{Workers: 4, TraceCache: tc})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Render() != baseline {
		t.Fatalf("merged Fig3 report differs from single-process baseline")
	}
	if c := pc.Counters(); c.ResultHits == 0 {
		t.Fatalf("Fig3 merge was not served from the shared store: %+v", c)
	}
}

// TestShardEmpty pins the n > units edge: a shard that owns no cells runs
// zero work, returns an empty (hole-free) matrix without error, reports
// owned=0 through OnPlan, and its renderers produce well-formed
// (header-only) output.
func TestShardEmpty(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()[:2] // two functional identities: units 0 and 1
	planOwned, planTotal := -1, -1
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 4, Shard: Shard{Index: 6, Count: 8},
			OnPlan: func(owned, total int) { planOwned, planTotal = owned, total }})
	if err != nil {
		t.Fatalf("empty shard must succeed: %v", err)
	}
	if len(m.Workloads) != 0 || len(m.Holes) != 0 {
		t.Fatalf("empty shard produced cells or holes: %+v", m)
	}
	if planOwned != 0 || planTotal != len(wls)*len(cfgs) {
		t.Fatalf("OnPlan reported %d of %d cells, want 0 of %d", planOwned, planTotal, len(wls)*len(cfgs))
	}
	if out := m.RenderOverheadTable("sensitivity") + m.CSV(); out == "" {
		t.Fatalf("empty-shard render produced nothing")
	}
}

// TestShardDuplicateSubmission pins idempotence: resubmitting a shard whose
// artifacts are already in the shared store is served entirely from the
// result tier — no recomputation, no new stored objects.
func TestShardDuplicateSubmission(t *testing.T) {
	t.Parallel()
	mb := persist.NewMemBackend()
	shard := Shard{Index: 0, Count: 2}

	memTC := func() (*TraceCache, *persist.Cache) {
		pc, err := persist.OpenBackend(mb, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTraceCache()
		tc.AttachDisk(pc)
		return tc, pc
	}

	tc1, _ := memTC()
	first, m1 := sensRender(t, tc1, 1, shard)
	objects := mb.Len("result")
	if objects == 0 {
		t.Fatalf("first submission stored nothing")
	}

	tc2, pc2 := memTC()
	second, _ := sensRender(t, tc2, 1, shard)
	if second != first {
		t.Fatalf("duplicate submission rendered differently")
	}
	cells := 0
	for _, wl := range m1.Workloads {
		cells += len(m1.Cycles[wl])
	}
	c := pc2.Counters()
	if c.ResultHits != uint64(cells) || c.Stores != 0 {
		t.Fatalf("duplicate submission not idempotent: %d cells, counters %+v", cells, c)
	}
	if mb.Len("result") != objects {
		t.Fatalf("duplicate submission grew the store: %d → %d objects", objects, mb.Len("result"))
	}
}

// TestShardKilledLeaderRecovery pins crash consistency: a shard killed
// mid-sweep leaves partial artifacts and possibly an abandoned capture lock;
// rerunning the shard completes from the partial artifacts (served cells are
// result hits), recomputes only what is missing, and takes over the
// abandoned lock once it is stale — the store ends up with exactly the full
// artifact set, no duplicates.
func TestShardKilledLeaderRecovery(t *testing.T) {
	t.Parallel()
	mb := persist.NewMemBackend()
	shard := Shard{Index: 0, Count: 2}
	opt := persist.Options{StaleLockAge: 50 * time.Millisecond, LockWait: 2 * time.Second}

	pc1, err := persist.OpenBackend(mb, opt)
	if err != nil {
		t.Fatal(err)
	}
	tc1 := NewTraceCache()
	tc1.AttachDisk(pc1)
	first, _ := sensRender(t, tc1, 1, shard)
	full := mb.Len("result")

	// The "kill": the dead process was mid-capture on its first cell, so that
	// cell's result and trace artifacts never landed and the capture lock it
	// held was abandoned. Every other artifact survives.
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	k0 := cellTraceKey(wls[0].Name, cfgs[0], 1, 0)
	if err := mb.Delete("result", resultIdentity(k0, cfgs[0]).String()); err != nil {
		t.Fatal(err)
	}
	fid := funcIdentity(k0)
	if err := mb.Delete("trace", fid.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.TryLock(fid.String()); err != nil {
		t.Fatal(err) // deliberately never released: the dead shard's lock
	}
	time.Sleep(60 * time.Millisecond) // let the abandoned lock go stale

	pc2, err := persist.OpenBackend(mb, opt)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := NewTraceCache()
	tc2.AttachDisk(pc2)
	rerun, _ := sensRender(t, tc2, 1, shard)
	if rerun != first {
		t.Fatalf("rerun after kill rendered differently")
	}
	c := pc2.Counters()
	if c.ResultHits == 0 {
		t.Fatalf("rerun ignored the surviving artifacts: %+v", c)
	}
	if c.Stores == 0 {
		t.Fatalf("rerun recomputed nothing despite missing artifacts: %+v", c)
	}
	if got := mb.Len("result"); got != full {
		t.Fatalf("store not restored to the full artifact set: %d vs %d", got, full)
	}
	if _, err := mb.LockAge(fid.String()); err == nil {
		t.Fatalf("abandoned capture lock still held after takeover")
	}
}

// TestShardObsCounters pins the observability surface: a sharded metrics
// sweep exports harness.shard.* identity/coverage counters, and the disk
// export carries the persist.lock.* contention counters.
func TestShardObsCounters(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	shard := Shard{Index: 1, Count: 2}
	planOwned := -1
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 2, Metrics: true, Shard: shard,
			OnPlan: func(owned, _ int) { planOwned = owned }})
	if err != nil {
		t.Fatal(err)
	}
	grid := len(wls) * len(cfgs)
	if planOwned <= 0 || planOwned >= grid {
		t.Fatalf("OnPlan reported %d owned cells, want a strict slice of %d", planOwned, grid)
	}
	want := map[string]uint64{
		"harness.shard.index":       1,
		"harness.shard.count":       2,
		"harness.shard.cells":       uint64(planOwned),
		"harness.shard.cells_total": uint64(grid),
	}
	got := map[string]uint64{}
	for _, mt := range m.Obs.Snapshot() {
		got[mt.Name] = mt.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}

	// An unsharded metrics sweep carries no shard rows.
	m2, err := RunMatrixParallel(context.Background(), wls, Fig8SensitivityConfigs()[:1], 1,
		ParallelOptions{Workers: 1, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range m2.Obs.Snapshot() {
		if mt.Name == "harness.shard.index" || mt.Name == "harness.shard.count" {
			t.Errorf("unsharded sweep exported %s", mt.Name)
		}
	}

	// The disk-cache export includes the lock-plane counters.
	tc, _ := diskTC(t, t.TempDir(), persist.Options{})
	reg := newTestRegistry(t, tc)
	for _, name := range []string{"persist.lock.contended", "persist.lock.waits", "persist.lock.wait_ns"} {
		if _, ok := reg[name]; !ok {
			t.Errorf("recordDiskObs missing %s", name)
		}
	}
}
