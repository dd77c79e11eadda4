package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/harness"
	"rest/internal/isa"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/rt"
	"rest/internal/trace"
	"rest/internal/world"
)

// httpGetsPerResult is how many times the drill reads each stored result
// back over HTTP, so the GET percentile has enough samples.
const httpGetsPerResult = 20

// drillTotals accumulates one layer drill over the sample cells.
type drillTotals struct {
	buildMs, replayBuildMs, putMs, getMs []float64

	funcInstrs, oooInstrs, ioInstrs uint64
	funcTime, oooTime, ioTime       time.Duration
	branches, mispredicts, entries  uint64
	branchTime                      time.Duration
	accesses, l1dMisses, l2Misses   uint64
	accessTime                      time.Duration
	encBytes, dirBytes              uint64
	encTime, decTime, dirGetTime    time.Duration
	wireOps, resultPuts             uint64
}

// spec is the world a cell of cfg builds, as the sweep engine builds it.
func spec(cfg harness.BinaryConfig) world.Spec {
	return world.Spec{
		Pass:          cfg.Pass,
		Mode:          cfg.Mode,
		Width:         core.Width(cfg.Pass.TokenWidth),
		InterceptLibc: cfg.InterceptLibc,
		InOrder:       cfg.InOrder,
		CPU:           cfg.CPU,
		Hier:          cfg.Hier,
	}
}

// drillConfig is the cell configuration the drills run every workload
// under: REST secure mode with full instrumentation, present in every grid
// the benchmark sweeps.
func drillConfig() harness.BinaryConfig {
	for _, c := range harness.Fig7Configs() {
		if c.Name == "secure-full" {
			return c
		}
	}
	panic("perfbench: Fig 7 has no secure-full configuration")
}

// drills times each layer's public calls on the workload's own inputs:
// every workload of the grid under drillConfig at the workload's scale.
// Each call is a drill span; the totals become the per-layer metrics.
func (b *bench) drills(scale int64) error {
	mem := persist.NewMemBackend()
	memCache, err := persist.OpenBackend(mem, persist.Options{})
	if err != nil {
		return err
	}
	dir, err := persist.NewDirBackend(filepath.Join(b.work, "drill-dir"), false)
	if err != nil {
		return err
	}
	httpDir, err := persist.NewDirBackend(filepath.Join(b.work, "drill-http"), false)
	if err != nil {
		return err
	}
	url, stop, err := serve(httpDir)
	if err != nil {
		return err
	}
	defer stop()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	hb, err := persist.NewHTTPBackend(url, persist.HTTPOptions{Client: client, ReadCacheBytes: -1})
	if err != nil {
		return err
	}
	httpCache, err := persist.OpenBackend(hb, httpOptions())
	if err != nil {
		return err
	}
	var t drillTotals
	for _, wl := range b.workloads() {
		if err := b.drillCell(&t, wl.Name, wl.Build(scale), memCache, mem, dir, httpCache, hb); err != nil {
			return fmt.Errorf("drill %s: %w", wl.Name, err)
		}
	}
	b.addCounters(memCache)
	b.addCounters(httpCache)
	b.reportDrills(&t)
	return nil
}

// drillCell drills every layer on one workload's cell.
func (b *bench) drillCell(t *drillTotals, name string, build func(*prog.Builder), memCache *persist.Cache, mem *persist.MemBackend,
	dir *persist.DirBackend, httpCache *persist.Cache, hb *persist.HTTPBackend) error {
	cfg := drillConfig()
	sp := spec(cfg)
	attrs := map[string]any{"workload": name, "config": cfg.Name}
	l := b.spans

	// world/prog and sim: build a world, run it functionally.
	var w *world.World
	var err error
	d := l.drill("world.Build", attrs, func() { w, err = world.Build(sp, build) })
	if err != nil {
		return err
	}
	t.buildMs = append(t.buildMs, ms(d))
	var fout world.Outcome
	t.funcTime += l.drill("world.World.RunFunctional", attrs, func() { fout = w.RunFunctional() })
	if fout.Err != nil || fout.Detected() {
		return fmt.Errorf("functional run: %s", fout)
	}

	// Capture the cell's trace: the input of every timing-layer drill.
	if w, err = world.Build(sp, build); err != nil {
		return err
	}
	rec := trace.NewRecorder(tokenWidth(cfg), 0)
	defer rec.Release()
	var stats *cpu.Stats
	var out world.Outcome
	l.drill("world.World.RunTimedCapture", attrs, func() { stats, out = w.RunTimedCapture(rec) })
	if out.Err != nil || out.Detected() {
		return fmt.Errorf("capture: %s", out)
	}
	t.funcInstrs += stats.Instructions

	// cpu: replay the capture through the out-of-order and in-order cores.
	for _, inOrder := range []bool{false, true} {
		rsp := sp
		rsp.InOrder = inOrder
		rp := rec.Replayer()
		var tokens cache.TokenSource
		if rec.TokenWidth() != 0 {
			tokens = rp
		}
		var rw *world.World
		d := l.drill("world.BuildReplay", attrs, func() { rw, err = world.BuildReplay(rsp, tokens) })
		if err != nil {
			return err
		}
		t.replayBuildMs = append(t.replayBuildMs, ms(d))
		var st *cpu.Stats
		d = l.drill("world.World.ReplayTimed", map[string]any{"workload": name, "inorder": inOrder},
			func() { st, _ = rw.ReplayTimed(rp, out) })
		if inOrder {
			t.ioInstrs += st.Instructions
			t.ioTime += d
		} else {
			t.oooInstrs += st.Instructions
			t.oooTime += d
			if st.Cycles != stats.Cycles {
				b.problem("drill %s: replayed %d cycles, captured run took %d", name, st.Cycles, stats.Cycles)
			}
		}
	}

	// bpred and cache/dram: drive the captured branch and data-memory
	// streams through a fresh predictor and hierarchy.
	var branches, mems []trace.Entry
	for i := 0; i < rec.Len(); i++ {
		e := rec.At(i)
		switch {
		case e.Op.IsBranch():
			branches = append(branches, e)
		case e.Op.Class() == isa.ClassLoad || e.Op.Class() == isa.ClassStore:
			mems = append(mems, e)
		}
	}
	t.entries += uint64(rec.Len())
	pred := bpred.New(bpred.Config{})
	t.branchTime += l.drill("bpred.Predictor.Resolve", attrs, func() {
		for i := range branches {
			e := &branches[i]
			pred.Resolve(e.PC, e.Op, e.Taken, e.Target, e.PC+isa.InstrBytes)
		}
	})
	t.branches += uint64(len(branches))
	t.mispredicts += pred.Mispredicts
	h, err := cache.NewHierarchy(cache.DefaultHierConfig(), nil)
	if err != nil {
		return err
	}
	t.accessTime += l.drill("cache.Cache.Load/Store", attrs, func() {
		var now uint64
		for i := range mems {
			e := &mems[i]
			if e.Op.Class() == isa.ClassLoad {
				now = h.L1D.Load(now, e.Addr, e.Size).Done
			} else {
				h.L1D.Store(now, e.Addr, e.Size)
				now++
			}
		}
	})
	t.accesses += uint64(len(mems))
	t.l1dMisses += h.L1D.Stats.Misses
	t.l2Misses += h.L2.Stats.Misses

	// trace: encode into and decode out of an in-memory store.
	id := persist.SumID(name + "/" + cfg.Name)
	t.encTime += l.drill("persist.Cache.StoreTrace", attrs, func() { err = memCache.StoreTrace(id, rec, out.Checksum) })
	if err != nil {
		return err
	}
	t.encBytes += rec.Bytes()
	var back *trace.Recorder
	t.decTime += l.drill("persist.Cache.LoadTrace", attrs, func() { back, _, err = memCache.LoadTrace(id) })
	if err != nil {
		return err
	}
	if back.Len() != rec.Len() {
		b.problem("drill %s: decoded %d trace entries, encoded %d", name, back.Len(), rec.Len())
	}
	back.Release()

	// persist dir: put and get the encoded trace file.
	payload, err := mem.Get("trace", id.String())
	if err != nil {
		return err
	}
	d = l.drill("persist.DirBackend.Put", attrs, func() { err = dir.Put("trace", id.String(), payload) })
	if err != nil {
		return err
	}
	t.putMs = append(t.putMs, ms(d))
	var got []byte
	t.dirGetTime += l.drill("persist.DirBackend.Get", attrs, func() { got, err = dir.Get("trace", id.String()) })
	if err != nil {
		return err
	}
	t.dirBytes += uint64(len(got))

	// persist http: store the cell's result through the cache server, then
	// read it back with the client's read-through cache off.
	before := hb.Counters()
	l.drill("persist.Cache.StoreResult", attrs, func() {
		err = httpCache.StoreResult(id, &persist.CellResult{Stats: *stats, Checksum: out.Checksum})
	})
	if err != nil {
		return err
	}
	after := hb.Counters()
	t.wireOps += wireOps(after) - wireOps(before)
	t.resultPuts += after.Puts - before.Puts
	for i := 0; i < httpGetsPerResult; i++ {
		var r *persist.CellResult
		d := l.drill("persist.Cache.LoadResult", attrs, func() { r, err = httpCache.LoadResult(id) })
		if err != nil {
			return err
		}
		if r.Stats.Cycles != stats.Cycles {
			return errors.New("result read back over HTTP differs from the one stored")
		}
		t.getMs = append(t.getMs, ms(d))
	}
	return nil
}

// reportDrills turns the drill totals into per-layer metrics.
func (b *bench) reportDrills(t *drillTotals) {
	b.setLayer("world.build_ms", "ms", median(t.buildMs))
	b.setLayer("world.replay_build_ms", "ms", median(t.replayBuildMs))
	b.setLayer("sim.func_mips", "Minstr/s", mips(t.funcInstrs, t.funcTime))
	b.setLayer("cpu.ooo_mips", "Minstr/s", mips(t.oooInstrs, t.oooTime))
	b.setLayer("cpu.inorder_mips", "Minstr/s", mips(t.ioInstrs, t.ioTime))
	b.setLayer("bpred.mbranch_s", "Mbranch/s", mips(t.branches, t.branchTime))
	b.setLayer("bpred.mpki", "1/kinstr", ratio(1000*float64(t.mispredicts), float64(t.entries)))
	b.setLayer("cache.maccess_s", "Maccess/s", mips(t.accesses, t.accessTime))
	b.setLayer("cache.l1d_mpki", "1/kinstr", ratio(1000*float64(t.l1dMisses), float64(t.entries)))
	b.setLayer("cache.l2_mpki", "1/kinstr", ratio(1000*float64(t.l2Misses), float64(t.entries)))
	b.setLayer("trace.encode_mb_s", "MB/s", mips(t.encBytes, t.encTime))
	b.setLayer("trace.decode_mb_s", "MB/s", mips(t.encBytes, t.decTime))
	b.setLayer("persist.dir.put_ms", "ms", median(t.putMs))
	b.setLayer("persist.dir.get_mb_s", "MB/s", mips(t.dirBytes, t.dirGetTime))
	b.setLayer("persist.http.get_p50_ms", "ms", median(t.getMs))
	b.setLayer("persist.http.roundtrips_per_put", "ratio", ratio(float64(t.wireOps), float64(t.resultPuts)))
	// The drills' deterministic counts join the determinism record.
	b.counts["bpred.mpki"] = b.layer["bpred.mpki"].Value
	b.counts["cache.l1d_mpki"] = b.layer["cache.l1d_mpki"].Value
	b.counts["cache.l2_mpki"] = b.layer["cache.l2_mpki"].Value
}

// wireOps counts every request an HTTP client sent.
func wireOps(c persist.HTTPCounters) uint64 {
	return c.Gets + c.Puts + c.Deletes + c.Lists + c.LockOps + c.Renews
}

// tokenWidth is the chunk width a capture of cfg records: the pass's token
// width for REST builds, 0 otherwise (as the sweep engine captures).
func tokenWidth(cfg harness.BinaryConfig) uint64 {
	p := cfg.Pass.Normalized()
	if p.Flavour == rt.REST {
		return p.TokenWidth
	}
	return 0
}

// mips is millions of units per second.
func mips(n uint64, d time.Duration) float64 { return ratio(float64(n)/1e6, d.Seconds()) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
