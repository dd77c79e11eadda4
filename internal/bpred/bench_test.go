package bpred_test

import (
	"testing"

	"rest/internal/bpred"
	"rest/internal/core"
	"rest/internal/isa"
	"rest/internal/prog"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// branchStream records the control transfers of one workload's dynamic
// trace at scale 1 under REST secure-full, the Figure 7 headline
// configuration.
func branchStream(b *testing.B, name string) []trace.Entry {
	b.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := world.Build(world.Spec{Pass: prog.RESTFull(64), Mode: core.Secure, Width: core.Width(64)}, wl.Build(1))
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(64, 0)
	defer rec.Release()
	if _, out := w.RunTimedCapture(rec); out.Err != nil || out.Detected() {
		b.Fatalf("capture %s: %s", name, out)
	}
	var out []trace.Entry
	for i := 0; i < rec.Len(); i++ {
		if e := rec.At(i); e.Op.IsBranch() {
			out = append(out, e)
		}
	}
	return out
}

// BenchmarkTAGE drives the branch streams of gcc and xalanc through a fresh
// predictor's Resolve, the timing cores' only predictor call, and reports
// Mbranch/s.
func BenchmarkTAGE(b *testing.B) {
	var streams [][]trace.Entry
	for _, name := range []string{"gcc", "xalanc"} {
		streams = append(streams, branchStream(b, name))
	}
	var n uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			p := bpred.New(bpred.Config{})
			for j := range s {
				e := &s[j]
				p.Resolve(e.PC, e.Op, e.Taken, e.Target, e.PC+isa.InstrBytes)
			}
			n += uint64(len(s))
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mbranch/s")
}
