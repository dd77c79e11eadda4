package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"rest/internal/harness"
	"rest/internal/persist"
	"rest/internal/workload"
)

// bench is one run of one workload: its settings, what it has checked and
// what it has measured.
type bench struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	passes  int    // timed passes started so far; each rotates the rows once more
	workers int    // sweep pool size: -j = nproc, as restbench defaults
	work    string // private directory for stores, removed when the run ends

	golden      map[string]string // grid key -> expected report digest
	writeGolden bool
	seen        map[string]string // grid key -> digest this run produced

	attempted, failed int
	problems          []string

	counts map[string]float64 // exact-repeat counts (determinism guard)
	info   map[string]float64 // facts about the run's shape (passes, timed seconds, samples)
	e2e    map[string]metric
	layer  map[string]metric

	spans   *spanLog // nil on untraced runs
	store   storeCounters
	closers []func()
}

func newBench(name string, seed int64, seconds float64, traced bool, work string, golden map[string]string) *bench {
	b := &bench{
		name: name, seed: seed, seconds: seconds, traced: traced,
		workers: runtime.NumCPU(), work: work, golden: golden,
		seen:   map[string]string{},
		counts: map[string]float64{},
		info:   map[string]float64{},
		e2e:    map[string]metric{},
		layer:  map[string]metric{},
	}
	if traced {
		b.spans = newSpanLog()
	}
	return b
}

// close stops the servers the workload left running.
func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// workloads returns the paper's twelve workloads, rotated by the seed plus
// the number of timed passes so far. The simulator is deterministic, so
// this only changes the order in which the pool picks up the grid's rows,
// and so which cells run side by side. Rotating once more each pass reads
// each cell beside several different neighbours in one run.
func (b *bench) workloads() []workload.Workload {
	all := workload.All()
	k := int(uint64(b.seed+int64(b.passes)) % uint64(len(all)))
	return append(all[k:len(all):len(all)], all[:k]...)
}

// grid names one of the sweeps restbench prints.
type grid struct {
	name  string // fig3, fig7, fig8 or fig8sens
	scale int64
}

func (g grid) key() string { return fmt.Sprintf("%s@%d", g.name, g.scale) }

func (g grid) configs() int {
	switch g.name {
	case "fig3":
		return len(harness.Fig3Components) + 1
	case "fig7":
		return len(harness.Fig7Configs())
	case "fig8":
		return len(harness.Fig8Configs()) + 1
	default:
		return len(harness.Fig8SensitivityConfigs())
	}
}

// sweepOut is what one harness call produced.
type sweepOut struct {
	grid    grid
	report  string
	gap     float64 // paperGap of a complete Fig 7 sweep, else 0
	cells   int
	failed  int
	wall    time.Duration
	events  []harness.CellEvent
	started time.Time
}

// cellLog collects a sweep's OnCell events; the callback runs on every
// worker goroutine.
type cellLog struct {
	mu     sync.Mutex
	events []harness.CellEvent
}

func (l *cellLog) onCell(ev harness.CellEvent) {
	ev.Obs = nil
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// sweep runs one grid through its public harness entry point with the
// shipped defaults (-j nproc, in-memory trace tier on), the given trace
// cache, and an OnCell log. It renders the grid's report with rows in the
// paper's order, so the report does not depend on the seed.
func (b *bench) sweep(g grid, tc *harness.TraceCache) sweepOut {
	var log cellLog
	opt := harness.ParallelOptions{Workers: b.workers, TraceCache: tc, OnCell: log.onCell}
	wls := b.workloads()
	out := sweepOut{grid: g, cells: len(wls) * g.configs()}
	out.started = time.Now()
	var m *harness.Matrix
	var err error
	var fig3 *harness.Fig3Result
	ctx := context.Background()
	switch g.name {
	case "fig3":
		fig3, err = harness.RunFig3Parallel(ctx, wls, g.scale, opt)
		if fig3 != nil {
			m = fig3.Matrix
		}
	case "fig7":
		m, err = harness.RunMatrixParallel(ctx, wls, harness.Fig7Configs(), g.scale, opt)
	case "fig8":
		m, err = harness.RunMatrixParallel(ctx, wls, fig8Configs(), g.scale, opt)
	default:
		m, err = harness.RunFig8Sensitivity(ctx, wls, g.scale, opt)
	}
	out.wall = time.Since(out.started)
	out.events = log.events
	switch {
	case m == nil:
		out.failed = out.cells
		b.problem("%s: sweep returned no matrix: %v", g.key(), err)
	default:
		// Holes cover failed and skipped cells; any other error is the
		// sweep's own and fails the grid.
		out.failed = m.HoleCount()
		var merr *harness.MatrixError
		if err != nil && !errors.As(err, &merr) {
			out.failed = out.cells
			b.problem("%s: %v", g.key(), err)
		}
		out.report = render(g, m, fig3)
		if g.name == "fig7" && out.failed == 0 {
			out.gap = paperGap(m)
		}
	}
	b.attempted += out.cells
	b.failed += out.failed
	b.check(&out)
	if b.spans != nil {
		b.spans.sweep(out)
	}
	return out
}

func fig8Configs() []harness.BinaryConfig {
	return append(harness.Fig8Configs(), harness.Fig7Configs()[0]) // + plain, as restbench -fig8
}

// render produces the grid's report as restbench prints it (table plus raw
// cycle CSV), rows in the paper's workload order.
func render(g grid, m *harness.Matrix, fig3 *harness.Fig3Result) string {
	order := workload.Names()
	m.Workloads = inOrder(order, m.Workloads)
	if fig3 != nil {
		fig3.Workloads = inOrder(order, fig3.Workloads)
		return fig3.Render() + m.CSV()
	}
	return m.RenderOverheadTable(g.key()) + m.CSV()
}

// inOrder returns the members of have in the order they appear in order.
func inOrder(order, have []string) []string {
	in := map[string]bool{}
	for _, h := range have {
		in[h] = true
	}
	var out []string
	for _, o := range order {
		if in[o] {
			out = append(out, o)
		}
	}
	return out
}

// check compares a sweep's report with the expected digest and with every
// other report of the same grid in this run. A mismatch fails the grid's
// cells.
func (b *bench) check(out *sweepOut) {
	if out.report == "" {
		return
	}
	sum := sha256.Sum256([]byte(out.report))
	d := hex.EncodeToString(sum[:])
	key := out.grid.key()
	if prev, ok := b.seen[key]; ok && prev != d {
		b.problem("%s: report differs from the run's earlier %s report", key, key)
		b.failed += out.cells - out.failed
		return
	}
	b.seen[key] = d
	if want, ok := b.golden[key]; !b.writeGolden && (!ok || want != d) {
		b.problem("%s: report digest %s, expected %s", key, d[:12], short(want))
		b.failed += out.cells - out.failed
	}
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	if s == "" {
		return "(none recorded)"
	}
	return s
}

// paperGap is the mean absolute distance, in percentage points, between the
// Fig 7 weighted-mean overheads and the paper's numbers for the four REST
// bars the paper states.
func paperGap(m *harness.Matrix) float64 {
	paper := []struct {
		cfg string
		pct float64
	}{{"secure-full", 2}, {"secure-heap", 2}, {"debug-full", 25}, {"debug-heap", 23}}
	var sum float64
	for _, p := range paper {
		sum += math.Abs(m.WtdAriMeanOverhead(p.cfg) - p.pct)
	}
	return sum / float64(len(paper))
}

// sources tallies a pass's cells by where their result came from.
var sources = []string{"stream", "capture", "replay", "disk-replay", "result-store"}

// passStats summarises the cell events of one timed pass.
type passStats struct {
	wall, cpu   time.Duration
	cells       int
	failed      int
	src         map[string]int
	instrs      uint64 // retired by a timing model (not served from the result store)
	busy        time.Duration
	hitTime     time.Duration
	cellMs      []cellTime
	outs        []sweepOut
	allocBytes  float64
	gcCPU, tCPU float64
}

func summarise(outs []sweepOut, wall, cpu time.Duration) passStats {
	p := passStats{wall: wall, cpu: cpu, src: map[string]int{}, outs: outs}
	for _, o := range outs {
		p.cells += o.cells
		p.failed += o.failed
		for _, ev := range o.events {
			d := ev.End.Sub(ev.Start)
			p.busy += d
			p.cellMs = append(p.cellMs, cellTime{cellID{o.grid, ev.Workload, ev.Config}, float64(d) / 1e6})
			p.src[ev.Source]++
			if ev.Source == "result-store" {
				p.hitTime += d
			} else if ev.Err == nil {
				p.instrs += ev.Instrs
			}
		}
	}
	return p
}

// recordCounts stores the exact-repeat counts of a pass and checks that every
// pass of the run repeats the first one's.
func (b *bench) recordCounts(p passStats) {
	c := map[string]float64{
		"harness.cells":        float64(p.cells),
		"harness.cells_failed": float64(p.failed),
	}
	for _, s := range sources {
		c["harness.src."+strings.ReplaceAll(s, "-", "_")] = float64(p.src[s])
	}
	c["sim.instrs_per_pass"] = float64(p.instrs)
	if len(b.counts) == 0 {
		b.counts = c
		return
	}
	for k, v := range c {
		if b.counts[k] != v {
			b.problem("%s changed between passes: %v then %v", k, b.counts[k], v)
		}
	}
}

// timedPasses runs n passes and returns each one's statistics.
func (b *bench) timedPasses(n int, pass func() (passStats, error)) ([]passStats, error) {
	var out []passStats
	for i := 0; i < n; i++ {
		b.passes++
		if i == 0 || out[i-1].allocBytes > settleAfterBytes {
			settle()
		}
		alloc0, gc0, tot0 := runtimeCounters()
		p, err := pass()
		if err != nil {
			return nil, err
		}
		alloc1, gc1, tot1 := runtimeCounters()
		p.allocBytes, p.gcCPU, p.tCPU = alloc1-alloc0, gc1-gc0, tot1-tot0
		b.recordCounts(p)
		out = append(out, p)
	}
	return out, nil
}

// settle collects the garbage earlier passes and set-ups left, so that
// each store fill and the first timed pass start from the heap a fresh
// restbench process would have. Without it, peak_rss_mb depended on where the collector happened
// to run. Passes that allocate little (a warm pass, about 10 MB) skip it,
// so forced collections do not crowd their CPU profile.
const settleAfterBytes = 64 << 20

func settle() { runtime.GC() }

// reportTimed turns the timed passes into the end-to-end metrics shared by
// every workload. sweep_s and cpu_s are the fastest pass's: the host only
// ever adds time to a pass, and on a shared host it added up to a half for
// stretches of seconds to minutes. In two sets of five runs of
// grids-warm-http on a 2-vCPU VM, the median pass spread 26%, and the
// fastest 14%.
func (b *bench) reportTimed(ps []passStats, setups []float64) {
	var walls, cpus []float64
	var timed float64
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		timed += p.wall.Seconds()
	}
	b.setE2E("sweep_s", "s", slices.Min(walls))
	b.setE2E("cpu_s", "s", slices.Min(cpus))
	b.setE2E("setup_s", "s", median(setups))
	b.setE2E("peak_rss_mb", "MB", peakRSSMB())
	c := cellPercentiles(ps)
	b.setE2E("cell_p50_ms", "ms", c.p50)
	b.setE2E("cell_tail_ms", "ms", c.tail)
	b.info["timed_s"] = timed
	b.info["passes"] = float64(len(ps))
	b.info["setup_reps"] = float64(len(setups))
	b.info["cells"] = float64(c.cells)
	b.info["readings_per_cell"] = float64(c.readings)
	b.info["cell_tail_pct"] = c.q
}

// reportLayerHarness fills the harness.* and go.* per-layer metrics from
// the traced passes.
func (b *bench) reportLayerHarness(ps []passStats) {
	var busy, wall, hitTime time.Duration
	var hits, cells int
	var alloc, gcCPU, tCPU float64
	for _, p := range ps {
		busy += p.busy
		wall += p.wall
		hitTime += p.hitTime
		hits += p.src["result-store"]
		cells += p.cells
		alloc += p.allocBytes
		gcCPU += p.gcCPU
		tCPU += p.tCPU
	}
	for k, v := range b.counts {
		if strings.HasPrefix(k, "harness.") {
			b.setLayer(k, "count", v)
		}
	}
	c := cellPercentiles(ps)
	b.setLayer("harness.cell_p50_ms", "ms", c.p50)
	b.setLayer("harness.cell_tail_ms", "ms", c.tail)
	b.setLayer("harness.busy_frac", "ratio", busy.Seconds()/(float64(b.workers)*wall.Seconds()))
	b.setLayer("harness.us_per_hit", "us", ratio(hitTime.Seconds()*1e6, float64(hits)))
	b.setLayer("go.alloc_mb_per_cell", "MB", ratio(alloc/1e6, float64(cells)))
	b.setLayer("go.gc_cpu_frac", "ratio", ratio(gcCPU, tCPU))
}

// storeCounters sums the counters of every store handle a run opened.
type storeCounters struct {
	failed, retries, readHits, readMisses uint64
}

// addCounters adds a store handle's counters to the run's totals.
func (b *bench) addCounters(c *persist.Cache) {
	cc, sc := c.Counters(), c.StackCounters()
	b.store.failed += cc.Unavailable + cc.Corruptions + sc.RetryGiveups + sc.Timeouts + sc.BreakerRejects
	b.store.retries += sc.Retries
	if hc, ok := c.HTTPCounters(); ok {
		b.store.failed += hc.TransportErrs
		b.store.readHits += hc.ReadHits
		b.store.readMisses += hc.ReadMisses
	}
}

func (b *bench) reportPersist() {
	s := b.store
	b.setLayer("persist.failed_ops", "count", float64(s.failed))
	b.setLayer("persist.retries", "count", float64(s.retries))
	b.setLayer("persist.readthrough_hit_ratio", "ratio", ratio(float64(s.readHits), float64(s.readHits+s.readMisses)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// cellID names one cell of one grid.
type cellID struct {
	grid             grid
	workload, config string
}

// cellTime is one cell's OnCell latency in one pass.
type cellTime struct {
	id cellID
	ms float64
}

// cellStats are the cell-latency percentiles of a run's timed passes.
type cellStats struct {
	p50, tail, q    float64
	cells, readings int // distinct cells; fewest readings of any cell
}

// cellPercentiles takes each distinct cell's fastest latency over the
// passes, then returns the median of those over the cells and the highest
// percentile of tailQuantiles with at least ten cells beyond it. A grid's
// cells differ in size, so a cell's latency is only compared with its own
// readings: repeating a pass adds readings per cell, never cells. The
// fastest reading is the cell's own cost. The cell running beside it on the
// other worker, and the host, only add time: one Fig 7 cell read 69, 126
// and 115 ms in three passes. Over six passes, resampled from twelve on a
// 2-vCPU VM, the median of per-cell medians spread 12% and that of per-cell
// minima 3%.
func cellPercentiles(ps []passStats) cellStats {
	byCell := map[cellID][]float64{}
	for _, p := range ps {
		for _, c := range p.cellMs {
			byCell[c.id] = append(byCell[c.id], c.ms)
		}
	}
	var fastest []float64
	st := cellStats{cells: len(byCell)}
	for _, r := range byCell {
		fastest = append(fastest, slices.Min(r))
		if st.readings == 0 || len(r) < st.readings {
			st.readings = len(r)
		}
	}
	n := float64(len(fastest))
	st.q = tailQuantiles[len(tailQuantiles)-1]
	for _, c := range tailQuantiles {
		if n*(1-c) >= 10 {
			st.q = c
			break
		}
	}
	st.p50, st.tail = median(fastest), quantile(fastest, st.q)
	return st
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters reads the Go runtime's cumulative allocation bytes, GC
// CPU seconds and total CPU seconds.
func runtimeCounters() (alloc, gcCPU, total float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(x metrics.Sample) float64 {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			return float64(x.Value.Uint64())
		case metrics.KindFloat64:
			return x.Value.Float64()
		}
		return 0
	}
	return val(s[0]), val(s[1]), val(s[2])
}

// loadGolden reads the expected report digests.
func loadGolden(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return map[string]string{}, fmt.Errorf("reading expected digests: %w", err)
	}
	var g map[string]string
	if err := json.Unmarshal(raw, &g); err != nil {
		return map[string]string{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return g, nil
}

// saveGolden merges digests into the file at path.
func saveGolden(path string, digests map[string]string) error {
	g, _ := loadGolden(path)
	for k, v := range digests {
		g[k] = v
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
