// Command perfbench is the repository's end-to-end benchmark. It drives the
// sweep engine (harness.RunMatrixParallel, RunFig8Sensitivity,
// RunFig3Parallel) and the persistent store (persist) through their public
// functions, times every phase from outside, checks that every report it
// produced is the one the simulator is expected to produce, and prints one
// JSON result line.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload fig7-warm-http --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans and CPU profiles kept in memory, drills each layer on the
// workload's own inputs, prints the per-layer metrics and writes the spans
// and profiles under the build directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(*bench) error{
	"fig7-warm-http":  warmHTTP([]grid{{"fig7", 5}}, 0.011),
	"grids-warm-http": warmHTTP(warmGrids, 0.05),
}

func main() {
	name := flag.String("workload", "", "workload: fig7-warm-http or grids-warm-http")
	seed := flag.Int64("seed", 1, "rotates the grid's row order (the simulator is deterministic)")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and CPU profile")
	buildDir := flag.String("build-dir", ".bench_build", "directory for stores, spans and profiles")
	writeGolden := flag.Bool("write-golden", false, "record this run's report digests in golden.json instead of checking them")
	flag.Parse()

	run, ok := workloadFuncs[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	want, err := loadGolden(goldenPath)
	if err != nil && !*writeGolden {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(*buildDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := newBench(*name, *seed, *seconds, *traceFlag == 1, work, want)
	b.writeGolden = *writeGolden
	err = run(b)
	b.close()
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if b.traced {
		if err := b.writeTrace(*buildDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *writeGolden {
		if err := saveGolden(goldenPath, b.seen); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	b.print(os.Stdout)
}

func workloadNames() []string {
	var out []string
	for n := range workloadFuncs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// print writes the determinism record and then the result line.
func (b *bench) print(f *os.File) {
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	rec, _ := json.Marshal(map[string]any{
		"workload": b.name, "seed": b.seed, "workers": b.workers,
		"digests": b.seen, "counts": b.counts, "info": b.info,
	})
	fmt.Fprintf(f, "determinism %s\n", rec)
	metrics := b.e2e
	if b.traced {
		metrics = b.layer
	}
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(f, "%s\n", line)
}

// goldenPath holds the expected report digests, relative to the checkout
// root the benchmark runs from.
var goldenPath = filepath.Join("perfbench", "golden.json")
