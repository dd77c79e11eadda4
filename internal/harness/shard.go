package harness

import (
	"fmt"
	"strconv"
	"strings"

	"rest/internal/workload"
)

// Shard selects which slice of a sweep grid one process runs, the scale-out
// half of the distributed-sweep story. The sweep engine (parallel.go) deals
// the grid's units into its worker pool by one of three policies, all picked
// here:
//
//   - the zero Shard deals every unit: the full grid;
//   - a static shard i/n deals the units Owns selects, still in grid order;
//   - the elastic shard ("-shard auto") deals whatever units it can claim on
//     the shared store's lock plane (elastic.go).
//
// Every process sees the same workload-major grid order and derives the same
// unit list from it (gridUnits), and the shared artifact cache carries the
// results across processes. The static partition is a pure function of the
// grid — no coordination, no registration, no ordering between shards — so
// shards can run on different machines, at different times, or twice
// (duplicate submissions are idempotent: content addressing makes the second
// run a cache hit).
//
// The unit is the functional identity, not the cell: all cells sharing one
// captured trace (the timing rows of a workload × flavour; see cellTraceKey)
// form one unit, numbered in first-appearance order, and every unit lands
// whole on exactly one process. Splitting a unit would make several
// processes need the same capture, and the store's cross-process
// single-flight would then serialize the cold path through its capture locks
// — measured on the sensitivity grid, two cell-strided shards ran no faster
// than one. Static shards take units in boustrophedon (snake) order rather
// than plain round-robin so that systematic cost differences between
// neighbouring units — a grid's flavours alternate, and instrumented builds
// simulate slower than plain ones — and any cost gradient along the workload
// axis both spread evenly across shards. For grids with no shared identities
// (every config functionally distinct) the unit is a single cell and this
// degrades to balanced cell-level dealing.
type Shard struct {
	// Index is the 0-based shard number, 0 ≤ Index < Count.
	Index int
	// Count is the total number of static shards. Below 1 it runs the full
	// grid, except elasticCount, which selects the elastic pool.
	Count int
}

// elasticCount is the Count of the elastic shard, the value "-shard auto"
// parses to: no fixed slice, units are claimed one lease at a time.
const elasticCount = -1

// ParseShard parses the restbench "-shard" spec: "i/n" (1-based on the wire,
// 0-based in the struct) for a static slice, or "auto" for the elastic pool.
func ParseShard(spec string) (Shard, error) {
	if spec == "auto" {
		return Shard{Count: elasticCount}, nil
	}
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard spec %q is neither i/n (e.g. 2/4) nor auto", spec)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return Shard{}, fmt.Errorf("shard index %q is not an integer", i)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return Shard{}, fmt.Errorf("shard count %q is not an integer", n)
	}
	if cnt < 1 {
		return Shard{}, fmt.Errorf("shard count must be ≥ 1, got %d", cnt)
	}
	if idx < 1 || idx > cnt {
		return Shard{}, fmt.Errorf("shard index %d out of range 1..%d", idx, cnt)
	}
	return Shard{Index: idx - 1, Count: cnt}, nil
}

// Enabled reports whether the shard restricts this process to a share of
// the grid at all (a static slice or the elastic pool).
func (s Shard) Enabled() bool { return s.Count > 0 || s.Elastic() }

// Elastic reports whether the shard is the work-stealing pool.
func (s Shard) Elastic() bool { return s.Count == elasticCount }

// Owns reports whether unit u (see gridUnits) belongs to this static shard.
// Units are dealt in snake order: forward on even rounds, backward on odd
// ones, so any window of 2·Count consecutive units gives every shard exactly
// two. A disabled shard owns every unit.
func (s Shard) Owns(u int) bool {
	if s.Count <= 0 {
		return true
	}
	p := u % s.Count
	if (u/s.Count)%2 == 1 {
		p = s.Count - 1 - p
	}
	return p == s.Index
}

// String renders the wire form ("2/4" or "auto"), or "" when disabled.
func (s Shard) String() string {
	switch {
	case !s.Enabled():
		return ""
	case s.Elastic():
		return "auto"
	}
	return fmt.Sprintf("%d/%d", s.Index+1, s.Count)
}

// ownership marks the grid cells a static shard deals itself: every cell of
// every unit Owns selects.
func (s Shard) ownership(units []sweepUnit, cells int) []bool {
	owns := make([]bool, cells)
	for ui, u := range units {
		if s.Owns(ui) {
			for _, gi := range u.cells {
				owns[gi] = true
			}
		}
	}
	return owns
}

// sweepUnit is one functional identity of a grid and the grid indices of
// the cells sharing it.
type sweepUnit struct {
	key   traceKey
	cells []int
}

// gridUnits enumerates a workload-major grid's units in first-appearance
// order. It is the single source of truth for what a unit is: the static
// partition, the elastic pool's claims, trace-cache planning and UnitCount
// all read it. Identities need not be adjacent in the grid (sensitivity
// grids alternate flavours), so units are tracked by key, not by run.
func gridUnits(wls []workload.Workload, cfgs []BinaryConfig, scale int64, budget uint64) []sweepUnit {
	index := make(map[traceKey]int)
	var units []sweepUnit
	i := 0
	for _, wl := range wls {
		for _, cfg := range cfgs {
			k := cellTraceKey(wl.Name, cfg, scale, budget)
			u, seen := index[k]
			if !seen {
				u = len(units)
				index[k] = u
				units = append(units, sweepUnit{key: k})
			}
			units[u].cells = append(units[u].cells, i)
			i++
		}
	}
	return units
}

// UnitCount reports how many units a grid partitions into. Exposed for
// benchmarks and tooling that watch an elastic pool drain marker by marker.
func UnitCount(wls []workload.Workload, cfgs []BinaryConfig, scale int64, budget uint64) int {
	return len(gridUnits(wls, cfgs, scale, budget))
}
