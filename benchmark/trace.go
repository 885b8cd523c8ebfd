package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans live in
// memory until the run ends; parent is an index into the tracer's span
// list, -1 for a root.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Parent   int     `json:"parent"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
	SelfS    float64 `json:"self_s"`
}

// tracer records spans at the layer boundaries the harness crosses. A
// nil tracer records nothing, so the untraced run executes the same code
// minus the bookkeeping — the difference is the tracing overhead.
type tracer struct {
	origin   time.Time
	workload string
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// in runs fn inside a span named name and returns fn's duration.
func (t *tracer) in(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].StartS = start.Sub(t.origin).Seconds()
	t.spans[id].EndS = end.Sub(t.origin).Seconds()
	return end.Sub(start)
}

// fillSelfTimes sets every span's self time: its duration minus the
// part of its interval that its direct children cover (overlapping
// children are counted once).
func fillSelfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartS < spans[kids[b]].StartS })
		covered, reach := 0.0, spans[i].StartS
		for _, k := range kids {
			lo := max(spans[k].StartS, reach)
			hi := min(spans[k].EndS, spans[i].EndS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		spans[i].SelfS = spans[i].EndS - spans[i].StartS - covered
	}
}

// selfTotal sums the self times of one workload's spans named root and
// everything under them.
func selfTotal(spans []span, workload, root string) float64 {
	under := make([]bool, len(spans))
	total := 0.0
	for i, s := range spans { // parents precede children
		under[i] = (s.Name == root && s.Workload == workload) || (s.Parent >= 0 && under[s.Parent])
		if under[i] {
			total += s.SelfS
		}
	}
	return total
}

// write saves the spans; call fillSelfTimes first.
func (t *tracer) write(path string) error {
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
