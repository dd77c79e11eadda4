package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans share the run as their
// trace; Parent links a span to the one that caused it.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the run began
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing.
type spanLog struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	current  int               // the open phase span, parent of sweeps and drills
	profiles map[string][]byte // phase -> CPU profile
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), profiles: map[string][]byte{}} }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int, start, end time.Time, attrs map[string]any) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// phase runs fn as a phase span ("setup", "timed", "drills"); sweeps and
// drills recorded meanwhile become its children.
func (l *spanLog) phase(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := time.Now()
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: "phase." + name, Start: start.Sub(l.t0).Nanoseconds()})
	prev := l.current
	l.current = id
	l.mu.Unlock()
	fn()
	l.mu.Lock()
	l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
	l.current = prev
	l.mu.Unlock()
}

// sweep records a sweep span around one harness call and one cell span per
// OnCell event under it.
func (l *spanLog) sweep(out sweepOut) {
	if l == nil {
		return
	}
	id := l.add("sweep."+out.grid.key(), l.parent(), out.started, out.started.Add(out.wall),
		map[string]any{"cells": out.cells, "failed": out.failed})
	for _, ev := range out.events {
		l.add("cell", id, ev.Start, ev.End, map[string]any{
			"workload": ev.Workload, "config": ev.Config, "worker": ev.Worker,
			"source": ev.Source, "instrs": ev.Instrs,
		})
	}
}

// drill times fn as a layer-drill span named after the public call it makes.
func (l *spanLog) drill(name string, attrs map[string]any, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add("drill."+name, l.parent(), start, end, attrs)
	return end.Sub(start)
}

func (l *spanLog) parent() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.current
}

// profileCPU runs fn under the CPU profiler and keeps the profile as the
// named phase's.
func (l *spanLog) profileCPU(phase string, fn func()) error {
	if l == nil {
		fn()
		return nil
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	l.profiles[phase] = buf.Bytes()
	return nil
}

// writeTrace writes the traced run's spans and its phases' CPU profiles
// under dir/trace.
func (b *bench) writeTrace(dir string) error {
	out := filepath.Join(dir, "trace")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	raw, err := json.Marshal(b.spans.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", raw, 0o644); err != nil {
		return err
	}
	for phase, prof := range b.spans.profiles {
		if err := os.WriteFile(base+"."+phase+".cpu.pprof", prof, 0o644); err != nil {
			return err
		}
	}
	return nil
}
