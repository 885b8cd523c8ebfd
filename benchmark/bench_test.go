package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of CPython 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
		{[]float64{1.5, 9, 2, 4, 4, 7.25, 3, 8}, [3]float64{2.25, 4, 7.8125}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.want[1])
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10→11 worse by %v, want 0.1", got)
	}
	if got := worseBy(10, 11, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10→11 worse by %v, want -0.1", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// root [0,10] with siblings a [1,3] and b [4,8]; b has a nested child
	// c [5,6]; d [7,9] overlaps b and must be counted once in root.
	spans := []span{
		{Name: "root", Workload: "w", Parent: -1, StartS: 0, EndS: 10},
		{Name: "a", Workload: "w", Parent: 0, StartS: 1, EndS: 3},
		{Name: "b", Workload: "w", Parent: 0, StartS: 4, EndS: 8},
		{Name: "c", Workload: "w", Parent: 2, StartS: 5, EndS: 6},
		{Name: "d", Workload: "w", Parent: 0, StartS: 7, EndS: 9},
		{Name: "root", Workload: "other", Parent: -1, StartS: 10, EndS: 12},
	}
	fillSelfTimes(spans)
	want := []float64{10 - 2 - 4 - 1, 2, 3, 1, 2, 2}
	for i, w := range want {
		if math.Abs(spans[i].SelfS-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, spans[i].SelfS, w)
		}
	}
	// Non-overlapping self times under a root add up to its duration
	// (here less the 1 s that b and d both cover).
	if got := selfTotal(spans, "w", "root"); math.Abs(got-11) > 1e-12 {
		t.Errorf("selfTotal(w) = %v, want 11", got)
	}
	if got := selfTotal(spans, "other", "root"); got != 2 {
		t.Errorf("selfTotal(other) = %v, want 2", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	tr.in("outer", func() {
		tr.in("first", func() {})
		tr.in("second", func() { tr.in("inner", func() {}) })
	})
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.EndS < s.StartS || s.Workload != "w" {
			t.Errorf("span %+v malformed", s)
		}
	}
	want := map[string]int{"outer": -1, "first": 0, "second": 0, "inner": 2}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	// A nil tracer runs the function and records nothing.
	ran := false
	(*tracer)(nil).in("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

func TestStripBanners(t *testing.T) {
	in := "=== exhibit 6: FCT (seed=1 scale=0.25 workers=2)\nFig.6 summary\n  a === b\n\n=== exhibit 6 done in 1.2s\n\n"
	want := "Fig.6 summary\n  a === b\n\n\n"
	if got := string(stripBanners([]byte(in))); got != want {
		t.Errorf("stripBanners = %q, want %q", got, want)
	}
	if got := string(stripBanners([]byte("table\nno newline"))); got != "table\nno newline" {
		t.Errorf("unterminated last line mangled: %q", got)
	}
	if got := stripBanners([]byte("=== only")); len(got) != 0 {
		t.Errorf("lone banner kept: %q", got)
	}
}

func TestParseDistLine(t *testing.T) {
	stderr := "halfback-sim: dist: worker 127.0.0.1:4242 configured\n" +
		"halfback-sim: dist: redials=2 reassignments=1 speculative-duplicates=0 fenced-zombie-attempts=0\n"
	d, ok := parseDistLine([]byte(stderr))
	if !ok || d.redials != 2 || d.reassignments != 1 {
		t.Errorf("parseDistLine = %+v, %v", d, ok)
	}
	if _, ok := parseDistLine([]byte("halfback-sim: dist: merged 3 cells\n")); ok {
		t.Error("parsed a metrics line out of stderr that has none")
	}
}

// TestSpecMatchesHarness pins BENCHMARK.json to what the harness emits:
// the same workloads, the same metric names, units, directions and
// bounds, and every name well-formed. The harness checks at run time
// that each declared metric was actually produced.
func TestSpecMatchesHarness(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, have)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, harness %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer: BENCHMARK.json and harness differ:\n%v\n%v", spec.PerLayer, perLayer())
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, n := range have {
		check(n)
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if n := len(perLayer()); n != 67 {
		t.Errorf("%d per-layer metrics, want the 66 of the glossary plus trace_overhead_share", n)
	}
}

func TestWorkloadCommandLines(t *testing.T) {
	for _, w := range workloads {
		journal := ""
		if w.journal {
			journal = "/tmp/j"
		}
		args := w.args(42, journal)
		seen := map[string]string{}
		for i := 0; i+1 < len(args); i++ {
			seen[args[i]] = args[i+1]
		}
		if seen["-seed"] != "42" {
			t.Errorf("%s: seed not passed through: %v", w.name, args)
		}
		if w.journal != (seen["-journal"] == "/tmp/j") {
			t.Errorf("%s: journal flag wrong: %v", w.name, args)
		}
		if w.dist != (seen["-distributed"] == "2") {
			t.Errorf("%s: -distributed wrong: %v", w.name, args)
		}
		if w.cells <= 0 || w.render == nil {
			t.Errorf("%s: incomplete definition", w.name)
		}
	}
}
