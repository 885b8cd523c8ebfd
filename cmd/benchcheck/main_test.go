package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The gate reads BENCHMARK.json and its defaults relative to the
// repository root, so the tests run there: the bounds and directions
// they trip are the ones the benchmark declares (0.25; events_per_s
// higher, the rest lower).
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

const fixtures = "cmd/benchcheck/testdata/"

type objects = []map[string]any

func TestGate(t *testing.T) {
	dir := t.TempDir()
	n := 0
	// literal writes content as a results file of its own.
	literal := func(content string) string {
		n++
		path := filepath.Join(dir, fmt.Sprintf("current%d.json", n))
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// edited is a fixture's result objects after edit, as a new file.
	edited := func(fixture string, edit func(objects) objects) string {
		buf, err := os.ReadFile(fixtures + fixture)
		if err != nil {
			t.Fatal(err)
		}
		var sets []objects
		if err := json.Unmarshal(buf, &sets); err != nil {
			t.Fatal(err)
		}
		sets[0] = edit(sets[0])
		out, _ := json.Marshal(sets)
		return literal(string(out))
	}
	set := func(i int, field string, v any) func(objects) objects {
		return func(o objects) objects { o[i][field] = v; return o }
	}
	metric := func(i int, name string, v float64) func(objects) objects {
		return func(o objects) objects { o[i]["metrics"].(map[string]any)[name] = v; return o }
	}

	for _, tc := range []struct {
		name     string
		baseline string // default: the baseline fixture
		current  string
		code     int
		stdout   string // substring
		stderr   string // substring
	}{
		{name: "clean", current: fixtures + "current.json", code: 0,
			stdout: "1.2 ->            1 ->          1.1 s"},
		{name: "clean traced pass", current: fixtures + "current_traced.json", code: 0,
			stdout: "alpha.traced"},
		{name: "event-count drift", current: edited("current.json", set(0, "experiment_events", 1001)), code: 1,
			stderr: "FAIL alpha: experiment_events 1001 != baseline 1000 — executed event counts are exact for a pinned seed, so this is a behaviour change"},
		{name: "sha drift", current: edited("current.json", set(1, "output_sha256", "cccc")), code: 1,
			stderr: "FAIL beta: output_sha256 cccc != baseline bbbb"},
		{name: "failed invocations", current: edited("current.json", set(1, "failed", 2)), code: 1,
			stderr: "FAIL beta: 2 invocations failed"},
		{name: "workload missing from current", current: edited("current.json", func(o objects) objects { return o[:1] }), code: 1,
			stderr: "FAIL beta: in the baseline but not measured"},
		{name: "workload missing from baseline", current: edited("current.json", func(o objects) objects {
			return append(o, map[string]any{"workload": "gamma", "seed": 23, "metrics": map[string]any{}})
		}), code: 1, stderr: "FAIL gamma: not in the baseline"},
		{name: "seed mismatch", current: edited("current.json", set(1, "seed", 1)), code: 2,
			stderr: "baseline.json was measured at seed 23, beta of "},
		{name: "lower-is-better within bound", current: edited("current.json", metric(0, "wall_s", 1.24)), code: 0},
		{name: "lower-is-better beyond bound", current: edited("current.json", metric(0, "wall_s", 1.26)), code: 3,
			stderr: "SLOW alpha: wall_s 1.26 s is beyond 1.25"},
		{name: "higher-is-better within bound", current: edited("current.json", metric(0, "events_per_s", 760)), code: 0},
		{name: "higher-is-better beyond bound", current: edited("current.json", metric(0, "events_per_s", 740)), code: 3,
			stderr: "SLOW alpha: events_per_s 740 1/s is beyond 750"},
		{name: "beyond bound and event-count drift", current: edited("current.json", func(o objects) objects {
			return set(0, "experiment_events", 1001)(metric(0, "wall_s", 1.26)(o))
		}), code: 1, stderr: "SLOW alpha: wall_s 1.26"},
		{name: "end-to-end metric absent", current: edited("current.json", func(o objects) objects {
			delete(o[0]["metrics"].(map[string]any), "cpu_s")
			return o
		}), code: 1, stderr: "FAIL alpha: cpu_s is missing"},
		{name: "traced allocations beyond slack", current: edited("current_traced.json", metric(0, "experiment.allocs_per_event", 0.093)), code: 1,
			stderr: "FAIL alpha.traced: experiment.allocs_per_event 0.093"},
		{name: "malformed current", current: literal(`[[{"workload": `), code: 2, stderr: dir},
		{name: "empty current", current: literal(""), code: 2, stderr: dir},
		{name: "current without objects", current: literal("[[]]"), code: 2, stderr: "holds 0 result objects"},
		{name: "current not there", current: filepath.Join(dir, "absent.json"), code: 2, stderr: "absent.json"},
		{name: "baseline without runs", baseline: literal("{}"), current: fixtures + "current.json", code: 2, stderr: "holds 0 runs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.baseline == "" {
				tc.baseline = fixtures + "baseline.json"
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"-baseline", tc.baseline, "-current", tc.current}, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("exit %d, want %d\nstdout (want …%q…):\n%s\nstderr (want …%q…):\n%s",
					code, tc.code, tc.stdout, stdout.String(), tc.stderr, stderr.String())
			}
		})
	}
}

// With no -baseline the gate reads the newest committed trajectory file:
// the fixture's workloads are not the repository's, and the refusal
// names one of the file's.
func TestDefaultBaselineIsTheNewestTrajectory(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-current", fixtures + "current.json"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "FAIL dumbbell_serial: in the baseline but not measured") {
		t.Errorf("exit %d: %s", code, stderr.String())
	}
}
