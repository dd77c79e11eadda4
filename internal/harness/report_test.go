package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"rest/internal/attack"
	"rest/internal/prog"
	"rest/internal/world"
)

func TestMatrixJSON(t *testing.T) {
	wls := subset(t, "lbm")
	m, err := RunMatrix(wls, Fig7Configs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.JSON("fig7", 1)
	if err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if rep.Title != "fig7" || rep.Scale != 1 {
		t.Errorf("header = %+v", rep)
	}
	if rep.Cycles["lbm"]["plain"] == 0 {
		t.Error("missing baseline cycles")
	}
	if _, ok := rep.OverheadPc["lbm"]["secure-full"]; !ok {
		t.Error("missing overhead cell")
	}
	if _, ok := rep.OverheadPc["lbm"]["plain"]; ok {
		t.Error("baseline has an overhead entry")
	}
	if _, ok := rep.WtdMeanPc["asan"]; !ok {
		t.Error("missing weighted mean")
	}
	if m.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestFig3JSON(t *testing.T) {
	r, err := RunFig3Parallel(context.Background(), subset(t, "lbm"), 1, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["benchmark"] != "lbm" {
		t.Errorf("rows = %v", rows)
	}
	comp := rows[0]["components_percent"].(map[string]interface{})
	if len(comp) != 4 {
		t.Errorf("components = %v", comp)
	}
}

func TestRenderBarChart(t *testing.T) {
	wls := subset(t, "lbm")
	m, err := RunMatrix(wls, Fig7Configs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	chart := m.RenderBarChart("Figure 7", 180)
	if !strings.Contains(chart, "lbm") || !strings.Contains(chart, "asan") {
		t.Error("chart missing rows")
	}
	if !strings.Contains(chart, "#") {
		t.Error("chart has no bars")
	}
}

// TestTableIIIConsistency verifies Table III's REST row against the actual
// behaviour of the implementation, via the attack suite's ground truth.
func TestTableIIIConsistency(t *testing.T) {
	claims := TableIIIRESTRow()
	if claims.NeedsShadowSpace {
		t.Error("claims say no shadow space; the REST flavour must not use one")
	}
	// Spatial = Linear: linear overflows caught, targeted jumps not.
	caught := attackDetected(t, "heap-linear-overflow-write")
	jumped := attackDetected(t, "jump-over-redzone")
	if !caught || jumped {
		t.Errorf("spatial pattern claim violated: linear=%v jump=%v", caught, jumped)
	}
	// Temporal = Until realloc: UAF caught, post-recycle not.
	uaf := attackDetected(t, "uaf-read")
	recycled := attackDetected(t, "uaf-after-recycle")
	if !uaf || recycled {
		t.Errorf("temporal window claim violated: uaf=%v recycled=%v", uaf, recycled)
	}
	// Composable: the heartbleed memcpy runs in UNINSTRUMENTED library code
	// and is still caught under heap-only REST.
	if !attackDetected(t, "heartbleed") {
		t.Error("composability claim violated: uninstrumented memcpy not covered")
	}
}

func attackDetected(t *testing.T, name string) bool {
	t.Helper()
	a, ok := attack.ByName(name)
	if !ok {
		t.Fatalf("unknown attack %q", name)
	}
	w, err := world.Build(world.Spec{Pass: prog.RESTHeap(64)}, a.Build)
	if err != nil {
		t.Fatal(err)
	}
	out := w.RunFunctional()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	return out.Detected()
}
