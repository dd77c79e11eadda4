package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runRecord is one benchmark run as its standard output reports it.
type runRecord struct {
	Workload string
	Result   result
	Det      struct {
		Digests map[string]string  `json:"digests"`
		Counts  map[string]float64 `json:"counts"`
		Info    map[string]float64 `json:"info"`
	}
}

func parseRun(workload, stdout string) (runRecord, error) {
	rec := runRecord{Workload: workload}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 {
		return rec, fmt.Errorf("want a determinism line and a result line, got %q", stdout)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	det, ok := strings.CutPrefix(lines[len(lines)-2], "determinism ")
	if !ok {
		return rec, fmt.Errorf("no determinism line before the result")
	}
	return rec, json.Unmarshal([]byte(det), &rec.Det)
}

// failureModes are the ways an earlier benchmark design was too noisy to
// gate anything. Each returns a non-empty reason when a run repeats it.
var failureModes = map[string]func(runRecord) string{
	// A warm timed phase of tens of milliseconds measured timer and
	// scheduler noise next to a set-up hundreds of times longer.
	"timed_phase_too_short": func(r runRecord) string {
		if t := r.Det.Info["timed_s"]; t < 1 {
			return fmt.Sprintf("timed phase lasted %.3fs", t)
		}
		return ""
	},
	// Cell percentiles read off a handful of cells were single readings of
	// single heterogeneous cells. Now each cell's latency is its fastest of
	// at least three passes, and the percentiles are taken over distinct
	// cells, so repeating a pass cannot stand in for more cells.
	"cell_percentile_from_few_cells": func(r runRecord) string {
		n, k, q := r.Det.Info["cells"], r.Det.Info["readings_per_cell"], r.Det.Info["cell_tail_pct"]
		if n < 90 || k < 3 || n*(1-q) < 10 {
			return fmt.Sprintf("%.0f distinct cells read %.0f times each for a p%g tail", n, k, 100*q)
		}
		return ""
	},
	// sim_mips once counted instructions served from the result store,
	// which were never simulated. Now the timed passes must simulate
	// nothing, and the simulation rate is the store fills'. No timing
	// model here retires anywhere near 1000 Minstr/s.
	"sim_mips_counts_unsimulated_work": func(r runRecord) string {
		if v := r.Det.Info["fill_mips"]; v <= 0 || v > 1000 {
			return fmt.Sprintf("fill rate %.1f Minstr/s", v)
		}
		if n := r.Det.Counts["sim.instrs_per_pass"]; n != 0 {
			return fmt.Sprintf("warm passes simulated %.0f instructions", n)
		}
		return ""
	},
	// setup_s once timed an empty interval of a fraction of a millisecond.
	"setup_times_empty_interval": func(r runRecord) string {
		if v := r.Result.Metrics["setup_s"].Value; v < 0.01 {
			return fmt.Sprintf("setup_s %.6f", v)
		}
		return ""
	},
}

func TestFailureModesAreCaught(t *testing.T) {
	good := runRecord{Workload: "grids-warm-http"}
	good.Det.Info = map[string]float64{"timed_s": 15, "cells": 456, "readings_per_cell": 600, "cell_tail_pct": 0.95, "fill_mips": 7}
	good.Det.Counts = map[string]float64{"sim.instrs_per_pass": 0}
	good.Result.Metrics = map[string]metric{"setup_s": {12, "s"}}
	for name, mode := range failureModes {
		if why := mode(good); why != "" {
			t.Errorf("%s flags a sound run: %s", name, why)
		}
	}
	bad := map[string]func(*runRecord){
		"timed_phase_too_short":            func(r *runRecord) { r.Det.Info["timed_s"] = 0.063 },
		"cell_percentile_from_few_cells":   func(r *runRecord) { r.Det.Info["readings_per_cell"] = 1 },
		"sim_mips_counts_unsimulated_work": func(r *runRecord) { r.Det.Info["fill_mips"] = 2835 },
		"setup_times_empty_interval":       func(r *runRecord) { r.Result.Metrics["setup_s"] = metric{0.0002, "s"} },
	}
	for name, spoil := range bad {
		r := good
		r.Det.Info = copyMap(good.Det.Info)
		r.Result.Metrics = map[string]metric{}
		for k, v := range good.Result.Metrics {
			r.Result.Metrics[k] = v
		}
		spoil(&r)
		if failureModes[name](r) == "" {
			t.Errorf("%s does not catch its failure", name)
		}
	}
}

func copyMap(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

func TestCellPercentilesKeepTenBeyondTheTail(t *testing.T) {
	for _, n := range []int{96, 192, 432, 1000, 50000} {
		p := passStats{}
		for i := 0; i < n; i++ {
			p.cellMs = append(p.cellMs, cellTime{cellID{workload: fmt.Sprint(i)}, float64(i)})
		}
		c := cellPercentiles([]passStats{p})
		if c.cells != n || c.readings != 1 {
			t.Errorf("%d cells: counted %d cells with %d readings", n, c.cells, c.readings)
		}
		if float64(n)*(1-c.q) < 10 && c.q != tailQuantiles[len(tailQuantiles)-1] {
			t.Errorf("%d cells: p%g leaves fewer than ten beyond", n, 100*c.q)
		}
	}
}

// Repeating passes of the same cells must add readings per cell, not cells,
// and a slow pass must not move a cell's figure.
func TestCellPercentilesUsePerCellFastest(t *testing.T) {
	var ps []passStats
	for pass := 0; pass < 5; pass++ {
		p := passStats{}
		for i := 0; i < 96; i++ {
			ms := float64(10 + i)
			if pass == 0 {
				ms *= 3 // one slow pass
			}
			p.cellMs = append(p.cellMs, cellTime{cellID{workload: fmt.Sprint(i)}, ms})
		}
		ps = append(ps, p)
	}
	c := cellPercentiles(ps)
	if c.cells != 96 || c.readings != 5 {
		t.Fatalf("counted %d cells with %d readings, want 96 and 5", c.cells, c.readings)
	}
	if c.p50 != 57.5 {
		t.Errorf("p50 = %v, want 57.5 (the slow pass ignored)", c.p50)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; want 1, 3", q1, q3)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(v, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
}

// selfTestRounds is how many untraced runs of each workload the steadiness
// self-test makes: the ten runs per workload the benchmark is accepted on.
const selfTestRounds = 10

// TestSelfSteadiness runs the benchmark's workloads interleaved over
// selfTestRounds rounds at BENCHMARK.json's run_seconds, reports each
// end-to-end metric's median and quartiles, and fails when a spread exceeds
// the metric's bound in BENCHMARK.json, when a run repeats one of
// failureModes, when a run reports failed cells, or when an exact-repeat
// count or report digest differs between runs. It takes about 25 minutes, so
// it runs only with PERFBENCH_SELFTEST=1.
func TestSelfSteadiness(t *testing.T) {
	if os.Getenv("PERFBENCH_SELFTEST") != "1" {
		t.Skip("set PERFBENCH_SELFTEST=1 to run the steadiness self-test")
	}
	spec := loadSpec(t)
	bin, buildDir := buildBench(t)

	// Every round runs each workload untraced; the first two rounds also
	// run it traced, whose drill counts must repeat exactly too.
	runs, traced := map[string][]runRecord{}, map[string][]runRecord{}
	for round := 0; round < selfTestRounds; round++ {
		for _, w := range spec.Workloads {
			for _, tr := range []string{"0", "1"} {
				if tr == "1" && round >= 2 {
					continue
				}
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", strconv.Itoa(round+1),
					"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", tr, "--build-dir", buildDir)
				cmd.Dir = ".."
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%s round %d trace %s: %v", w.Name, round, tr, err)
				}
				rec, err := parseRun(w.Name, string(out))
				if err != nil {
					t.Fatalf("%s round %d trace %s: %v", w.Name, round, tr, err)
				}
				if !rec.Result.Correct || rec.Result.Failed != 0 {
					t.Errorf("%s round %d trace %s: correct=%v, %d of %d cells failed", w.Name, round, tr,
						rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
				}
				if tr == "1" {
					traced[w.Name] = append(traced[w.Name], rec)
					continue
				}
				for name, mode := range failureModes {
					if why := mode(rec); why != "" {
						t.Errorf("%s round %d repeats %s: %s", w.Name, round, name, why)
					}
				}
				runs[w.Name] = append(runs[w.Name], rec)
			}
		}
	}
	for _, w := range spec.Workloads {
		sameDeterminism(t, w.Name+" traced", traced[w.Name])
	}
	for _, w := range spec.Workloads {
		rs := runs[w.Name]
		sameDeterminism(t, w.Name, rs)
		for _, m := range spec.EndToEnd {
			var vals []float64
			for _, r := range rs {
				vals = append(vals, r.Result.Metrics[m.Name].Value)
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			spread := ratio(q3-q1, med)
			t.Logf("%-16s %-14s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.3f (bound %.2f)",
				w.Name, m.Name, med, q1, q3, spread, m.Bound)
			if spread > m.Bound {
				t.Errorf("%s %s: spread %.3f exceeds bound %.2f", w.Name, m.Name, spread, m.Bound)
			}
		}
	}
}

// quartiles returns the first and third quartiles of v as Python's
// statistics.quantiles(v, n=4) computes them (its default "exclusive"
// method), the figures the benchmark's spread is judged on.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// sameDeterminism fails unless every run repeats the first one's
// exact-repeat counts and report digests.
func sameDeterminism(t *testing.T, what string, rs []runRecord) {
	t.Helper()
	for i, r := range rs {
		if !reflect.DeepEqual(r.Det.Counts, rs[0].Det.Counts) {
			t.Errorf("%s: exact-repeat counts of run %d differ from run 0:\n%v\n%v", what, i, r.Det.Counts, rs[0].Det.Counts)
		}
		if !reflect.DeepEqual(r.Det.Digests, rs[0].Det.Digests) {
			t.Errorf("%s: report digests of run %d differ from run 0", what, i)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the self-test reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(t *testing.T) benchSpec {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildBench compiles the benchmark once for the self-test.
func buildBench(t *testing.T) (bin, buildDir string) {
	buildDir = t.TempDir()
	bin = filepath.Join(buildDir, "perfbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, buildDir
}
