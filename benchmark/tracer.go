package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Start and End are nanoseconds since the
// tracer was created; Parent is the index of the enclosing span (-1 for a
// root) and Req groups the spans of one request or one simulation.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint32 `json:"req"`
}

// Tracer keeps spans in memory until the process writes them out. A nil
// *Tracer is the untraced mode: every method is a no-op that costs one
// nil check, so measured code paths are the same in both modes.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// noSpan is the parent of root spans and the ID a nil tracer hands out.
const noSpan int32 = -1

// Begin opens a span starting now.
func (t *Tracer) Begin(name string, parent int32, req uint32) int32 {
	if t == nil {
		return noSpan
	}
	return t.BeginAt(name, parent, req, time.Now())
}

// BeginAt opens a span with an explicit start, used where the span starts
// when a request was due rather than when the code got to it.
func (t *Tracer) BeginAt(name string, parent int32, req uint32, at time.Time) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: int64(at.Sub(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// End closes span id now.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// Record adds a completed span whose duration the caller measured itself
// (a span around a loop of many short calls, or a child process's phase).
func (t *Tracer) Record(name string, parent int32, req uint32, start time.Time, d time.Duration) int32 {
	if t == nil {
		return noSpan
	}
	id := t.BeginAt(name, parent, req, start)
	t.mu.Lock()
	t.spans[id].End = t.spans[id].Start + int64(d)
	t.mu.Unlock()
	return id
}

// LayerStat aggregates the spans of one name.
type LayerStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// Layers sums duration and self time per span name. Self time is a span's
// duration minus the part of it covered by its children's union, so
// concurrent children are not double-counted.
func (t *Tracer) Layers() map[string]LayerStat {
	out := make(map[string]LayerStat)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		covered := unionLen(t.spans, kids[i], s.Start, s.End)
		ls := out[s.Name]
		ls.Name = s.Name
		ls.Count++
		ls.TotalMs += float64(d) / 1e6
		ls.SelfMs += float64(d-covered) / 1e6
		out[s.Name] = ls
	}
	return out
}

// unionLen is the length of the union of the given spans clipped to
// [lo, hi].
func unionLen(spans []Span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// WriteFile writes every span plus the per-layer summary as JSON.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	layers := t.Layers()
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := make([]LayerStat, 0, len(names))
	for _, n := range names {
		summary = append(summary, layers[n])
	}
	t.mu.Lock()
	doc := struct {
		Layers []LayerStat `json:"layers"`
		Spans  []Span      `json:"spans"`
	}{summary, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// PrintLayers writes the per-layer self-time table, largest first.
func PrintLayers(w io.Writer, title string, layers map[string]LayerStat) {
	list := make([]LayerStat, 0, len(layers))
	for _, l := range layers {
		list = append(list, l)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].SelfMs > list[j].SelfMs })
	fmt.Fprintf(w, "%s: self time per layer\n", title)
	for _, l := range list {
		fmt.Fprintf(w, "  %-28s %8d spans %12.3f ms total %12.3f ms self\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
	}
}
