package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"rest/internal/harness"
	"rest/internal/persist"
)

// Each workload fills a fresh store this many times and reports the median
// fill as setup_s.
const fillReps = 3

// passCount is the number of timed passes for a pass of about per seconds.
// A timed phase is a fixed number of passes: --seconds divided by a nominal
// pass time, close to the pass time on the reference machine. A run then
// does the same work however fast the host is at the moment. A pass count
// that followed the clock flipped between one and two cold passes, which
// moved the heap's high-water mark and so peak_rss_mb.
func (b *bench) passCount(per float64) int {
	return max(1, int(b.seconds/per))
}

// warmGrids are the four sweeps restbench -all runs.
var warmGrids = []grid{{"fig3", 1}, {"fig7", 1}, {"fig8", 1}, {"fig8sens", 1}}

// warmHTTP returns a workload that times warm passes of grids against an
// in-process cache server on loopback, each pass taking about passSeconds.
// Every cell is a result-store hit; each pass opens a fresh client, as a
// new restbench process would. Set-up starts the server over a fresh dir
// store and fills it with one cold pass over HTTP: the grids' simulation
// plus the store's write path (trace capture and encode, puts over the
// wire, manifest flushes).
func warmHTTP(grids []grid, passSeconds float64) func(*bench) error {
	return func(b *bench) error {
		var url string
		fills, setups, err := b.fill(func(i int) ([]sweepOut, error) {
			var stop func()
			var err error
			url, stop, err = serveDir(filepath.Join(b.work, fmt.Sprintf("store%d", i)))
			if err != nil {
				return nil, err
			}
			b.closers = append(b.closers, stop)
			return b.httpPass(url, grids)
		})
		if err != nil {
			return err
		}
		ps, err := b.timedPhase(b.passCount(passSeconds), func() (passStats, error) {
			t0, c0 := time.Now(), cpuTime()
			outs, err := b.httpPass(url, grids)
			return summarise(outs, time.Since(t0), cpuTime()-c0), err
		})
		if err != nil {
			return err
		}
		b.reportTimed(ps, setups)
		for _, o := range fills[0] {
			if o.grid.name == "fig7" {
				b.setE2E("paper_gap_pts", "pts", b.gap(o))
			}
		}
		return b.finishTraced(ps, grids[0].scale)
	}
}

// fill runs the set-up: fillReps cold passes, each into a fresh store that
// pass(i) opens. It returns each fill's sweeps and wall time, and records
// the fills' simulation rate: the instructions a fill's timing models
// retired over its sweeps' wall time, median of the fills.
func (b *bench) fill(pass func(i int) ([]sweepOut, error)) ([][]sweepOut, []float64, error) {
	var fills [][]sweepOut
	var setups, mips []float64
	var err error
	perr := b.spans.profileCPU("setup", func() {
		b.spans.phase("setup", func() {
			for i := 0; i < fillReps && err == nil; i++ {
				settle()
				start := time.Now()
				var outs []sweepOut
				if outs, err = pass(i); err != nil {
					return
				}
				setups = append(setups, time.Since(start).Seconds())
				fills = append(fills, outs)
				var wall time.Duration
				for _, o := range outs {
					wall += o.wall
				}
				mips = append(mips, float64(summarise(outs, 0, 0).instrs)/1e6/wall.Seconds())
			}
		})
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("filling the store: %w", err)
	}
	b.info["fill_mips"] = median(mips)
	b.setLayer("harness.fill_mips", "Minstr/s", median(mips))
	return fills, setups, nil
}

// httpPass runs grids through a fresh HTTP client and store handle on the
// server at url, as one restbench -cache-url process.
func (b *bench) httpPass(url string, grids []grid) ([]sweepOut, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	hb, err := persist.NewHTTPBackend(url, persist.HTTPOptions{Client: client})
	if err != nil {
		return nil, err
	}
	pc, err := persist.OpenBackend(hb, httpOptions())
	if err != nil {
		return nil, err
	}
	tc := harness.NewTraceCache()
	tc.AttachDisk(pc)
	var outs []sweepOut
	for _, g := range grids {
		outs = append(outs, b.sweep(g, tc))
	}
	err = pc.Close()
	b.addCounters(pc)
	return outs, err
}

// httpOptions are restbench's defaults for -cache-url.
func httpOptions() persist.Options {
	return persist.Options{MaxBytes: persist.DefaultMaxBytes, Retries: persist.DefaultRetries, OpTimeout: 30 * time.Second}
}

// newHTTPClient matches persist's default client; the benchmark keeps a
// handle so each pass can drop its idle connections, as a process exit would.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// serveDir starts a cache server over a fresh dir store on a loopback port.
// stop closes it and waits for it to end.
func serveDir(dir string) (url string, stop func(), err error) {
	db, err := persist.NewDirBackend(dir, false)
	if err != nil {
		return "", nil, err
	}
	return serve(db)
}

func serve(be persist.Backend) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	persist.NewCacheServer(be).Register(mux)
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// timedPhase runs n timed passes. A traced run splits them: half without
// spans, then half with spans and the CPU profiler on (at least one each).
// It reports the difference between the two halves' median pass times as
// the tracing overhead; the per-layer harness metrics come from the traced
// half.
func (b *bench) timedPhase(n int, pass func() (passStats, error)) ([]passStats, error) {
	if !b.traced {
		return b.timedPasses(n, pass)
	}
	half := max(1, n/2)
	spans := b.spans
	b.spans = nil
	plain, err := b.timedPasses(half, pass)
	b.spans = spans
	if err != nil {
		return nil, err
	}
	var traced []passStats
	perr := b.spans.profileCPU("timed", func() {
		b.spans.phase("timed", func() {
			traced, err = b.timedPasses(half, pass)
		})
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	b.setLayer("bench.trace_overhead_s", "s", median(walls(traced))-median(walls(plain)))
	return traced, nil
}

func walls(ps []passStats) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.wall.Seconds())
	}
	return out
}

// finishTraced adds the per-layer metrics of a traced run: the harness
// counters of its traced passes, the persist counters, and the layer drills
// on the workload's own inputs.
func (b *bench) finishTraced(ps []passStats, scale int64) error {
	if !b.traced {
		return nil
	}
	b.reportLayerHarness(ps)
	var err error
	b.spans.phase("drills", func() { err = b.drills(scale) })
	b.reportPersist()
	return err
}

// gap is a complete Fig 7 sweep's paper_gap_pts.
func (b *bench) gap(o sweepOut) float64 {
	if o.gap == 0 {
		b.problem("no complete Fig 7 matrix for paper_gap_pts")
	}
	return o.gap
}
