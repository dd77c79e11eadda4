package cpu_test

import (
	"testing"

	"rest/internal/core"
	"rest/internal/prog"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// captureTrace records one workload's dynamic trace at scale 1 under REST
// secure-full, the Figure 7 headline configuration, and returns it with
// the world spec it ran under.
func captureTrace(b *testing.B, name string) (*trace.Recorder, world.Spec) {
	b.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	sp := world.Spec{Pass: prog.RESTFull(64), Mode: core.Secure, Width: core.Width(64)}
	w, err := world.Build(sp, wl.Build(1))
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(64, 0)
	if _, out := w.RunTimedCapture(rec); out.Err != nil || out.Detected() {
		b.Fatalf("capture %s: %s", name, out)
	}
	return rec, sp
}

// BenchmarkPipelineReplay replays captured gcc and xalanc traces through
// the out-of-order and in-order timing cores and reports simulated
// Minstr/s. Each replay gets a fresh hierarchy and predictor, as a sweep
// cell does; building them is outside the timer.
func BenchmarkPipelineReplay(b *testing.B) {
	for _, c := range []struct {
		name    string
		inOrder bool
	}{{"ooo", false}, {"inorder", true}} {
		b.Run(c.name, func(b *testing.B) {
			var recs []*trace.Recorder
			var specs []world.Spec
			for _, name := range []string{"gcc", "xalanc"} {
				rec, sp := captureTrace(b, name)
				defer rec.Release()
				sp.InOrder = c.inOrder
				recs, specs = append(recs, rec), append(specs, sp)
			}
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, rec := range recs {
					b.StopTimer()
					rp := rec.Replayer()
					w, err := world.BuildReplay(specs[j], rp)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					st, _ := w.ReplayTimed(rp, world.Outcome{})
					instrs += st.Instructions
				}
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
