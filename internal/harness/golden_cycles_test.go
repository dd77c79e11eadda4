package harness

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"rest/internal/cpu"
	"rest/internal/prog"
	"rest/internal/workload"
)

// goldenCyclesFile pins the timing model's output for every cell of the
// paper's grids: one CSV row per (grid, workload, config) at scale 1 with
// the cell's cycle count and the pipeline counters that feed it. It is the
// exactness contract for timing-model optimisations — a hot-path rewrite
// must reproduce every row bit for bit, without keeping a frozen copy of
// the old pipeline around as an oracle. The file is data, not a snapshot to
// refresh: a row that changes means the model's behaviour changed.
const goldenCyclesFile = "testdata/golden_cycles.csv"

const goldenCyclesHeader = "grid,workload,config,cycles,instructions,user_instrs,runtime_ops," +
	"mispredicts,branch_lookups,lsq_forwardings," +
	"rob_full_cycles,iq_full_cycles,lq_full_cycles,sq_full_cycles,rob_store_block_cycles"

// goldenGrids are the four swept grids of restbench -all, each over every
// workload: Figure 3 (in-order core), Figure 7, Figure 8 (+ its plain
// baseline) and the Figure 8 timing-sensitivity grid.
func goldenGrids() []struct {
	name string
	cfgs []BinaryConfig
} {
	return []struct {
		name string
		cfgs []BinaryConfig
	}{
		{"fig3", fig3Configs()},
		{"fig7", Fig7Configs()},
		{"fig8", append(Fig8Configs(), BinaryConfig{Name: "plain", Pass: prog.Plain()})},
		{"fig8sens", Fig8SensitivityConfigs()},
	}
}

func goldenRow(grid, wl, cfg string, s *cpu.Stats) string {
	return fmt.Sprintf("%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
		grid, wl, cfg, s.Cycles, s.Instructions, s.UserInstrs, s.RuntimeOps,
		s.Mispredicts, s.BranchLookups, s.LSQForwardings,
		s.ROBFullCycles, s.IQFullCycles, s.LQFullCycles, s.SQFullCycles, s.ROBStoreBlockCycles)
}

// TestGoldenCycles sweeps every golden grid and compares each cell's row
// against the committed file. Under the race detector it covers a
// two-workload subset (the detector adds nothing to a sequential timing
// model's exactness, and the full grid would dominate the race run).
func TestGoldenCycles(t *testing.T) {
	t.Parallel()
	want := readGoldenCycles(t)
	wls := workload.All()
	if raceEnabled {
		wls = subset(t, "lbm", "xalanc")
	}
	tc := NewTraceCache()
	checked := 0
	for _, g := range goldenGrids() {
		m, err := RunMatrixParallel(context.Background(), wls, g.cfgs, 1,
			ParallelOptions{TraceCache: tc})
		if err != nil {
			t.Fatalf("%s sweep: %v", g.name, err)
		}
		for _, wl := range m.Workloads {
			for _, cfg := range m.Configs {
				key := g.name + "," + wl + "," + cfg
				got := goldenRow(g.name, wl, cfg, m.Results[wl][cfg].Stats)
				w, ok := want[key]
				switch {
				case !ok:
					t.Errorf("%s: no golden row", key)
				case got != w:
					t.Errorf("%s diverged:\n got  %s\n want %s", key, got, w)
				}
				checked++
			}
		}
	}
	if !raceEnabled && checked != len(want) {
		t.Errorf("checked %d cells, golden file has %d rows", checked, len(want))
	}
}

// readGoldenCycles loads the golden file keyed by "grid,workload,config".
func readGoldenCycles(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenCyclesFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			if line != goldenCyclesHeader {
				t.Fatalf("golden header = %q, want %q", line, goldenCyclesHeader)
			}
			first = false
			continue
		}
		parts := strings.SplitN(line, ",", 4)
		if len(parts) < 4 {
			t.Fatalf("malformed golden row %q", line)
		}
		rows[strings.Join(parts[:3], ",")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
