// Command benchcheck gates one run of the repository benchmark against
// the committed trajectory. Run both from the repository root:
//
//	go run -C benchmark . -seed 23    # leaves benchmark/out/results.json
//	go run ./cmd/benchcheck           # compares it with the newest bench/BENCH_*.json
//
// Per workload it fails (exit 1) on: a workload present on one side
// only; a failed invocation; output bytes (output_sha256) or the
// executed-event count differing from the baseline's — both are exact
// for a pinned seed, so a difference is a behaviour change, not noise;
// and, for a traced pass, allocations or bytes per event more than
// tracedSlack above the baseline's traced entry. The trajectory has a
// traced entry for fleet_journal only, so the traced pass it gates is
// the harness's `-trace 1 -workload fleet_journal`. An end-to-end metric
// worse than the baseline's change median by more than the bound
// BENCHMARK.json fixes for it exits 3 when nothing else failed: timings
// compare this machine with the one that recorded the baseline, so CI,
// on other hardware, warns on 3. Exit 2: the comparison could not be
// made (unreadable or empty file, seeds differ). One trend line is
// printed per workload and metric: the baseline's parent median, its
// change median, and this run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const (
	contractPath = "BENCHMARK.json"
	baselineGlob = "bench/BENCH_*.json"
	// tracedSlack is how far a traced pass's per-event allocation
	// metrics may exceed the baseline's; they are near-deterministic for
	// a pinned seed, so the slack only absorbs runtime noise.
	tracedSlack = 0.15
	// tracedSuffix marks a traced pass's entry in a baseline file.
	tracedSuffix = ".traced"
)

// metricDef is one end_to_end entry of BENCHMARK.json: the bounds and
// directions gated here are the ones the benchmark declares.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// tracedMetrics are what a traced pass is gated on.
var tracedMetrics = []metricDef{
	{Name: "experiment.allocs_per_event", Unit: "1/event", Better: "lower", Bound: tracedSlack},
	{Name: "experiment.bytes_per_event", Unit: "B/event", Better: "lower", Bound: tracedSlack},
}

// baseline is what the gate reads of a bench/BENCH_<date>.json.
type baseline struct {
	Seed uint64 `json:"seed"`
	Runs map[string]struct {
		OutputSHA256 string `json:"output_sha256"`
		Events       uint64 `json:"experiment_events"`
	} `json:"runs"`
	Summary map[string]map[string]struct {
		Parent, Change struct {
			Median float64 `json:"median"`
		}
	} `json:"summary"`
}

// result is one of the harness's result objects in results.json.
type result struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	OutputSHA256 string             `json:"output_sha256"`
	Events       uint64             `json:"experiment_events"`
	Failed       int                `json:"failed"`
	Metrics      map[string]float64 `json:"metrics"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("baseline", "", "committed trajectory file (default: the newest "+baselineGlob+")")
	curPath := fs.String("current", "benchmark/out/results.json", "result objects of the run to gate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	unusable := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchcheck: "+format+"\n", a...)
		return 2
	}
	if *basePath == "" {
		files, _ := filepath.Glob(baselineGlob)
		if len(files) == 0 {
			return unusable("no %s to compare against", baselineGlob)
		}
		*basePath = slices.Max(files) // the names carry ISO dates
	}
	var (
		contract struct {
			EndToEnd []metricDef `json:"end_to_end"`
		}
		base baseline
		sets [][]result // one list per set of runs; -selfcheck writes two
	)
	if err := errors.Join(readJSON(contractPath, &contract), readJSON(*basePath, &base), readJSON(*curPath, &sets)); err != nil {
		return unusable("%v", err)
	}
	cur := slices.Concat(sets...)
	if len(contract.EndToEnd) == 0 || len(base.Runs) == 0 || len(cur) == 0 {
		return unusable("nothing to compare: %s declares %d end-to-end metrics, %s holds %d runs, %s holds %d result objects",
			contractPath, len(contract.EndToEnd), *basePath, len(base.Runs), *curPath, len(cur))
	}
	for _, r := range cur {
		if r.Seed != base.Seed {
			return unusable("%s was measured at seed %d, %s of %s at seed %d: output bytes and event counts are comparable only at the same seed",
				*basePath, base.Seed, r.Workload, *curPath, r.Seed)
		}
	}

	failed, slow := false, false
	report := func(status, key, format string, a ...any) {
		failed, slow = failed || status == "FAIL", slow || status == "SLOW"
		fmt.Fprintf(stderr, "benchcheck: %s %s: %s\n", status, key, fmt.Sprintf(format, a...))
	}
	seen := map[string]bool{}
	for _, r := range cur {
		key, defs := r.Workload, contract.EndToEnd
		if r.Trace {
			key, defs = r.Workload+tracedSuffix, tracedMetrics
		}
		seen[key] = true
		b, ok := base.Runs[key]
		if !ok {
			report("FAIL", key, "not in the baseline, so nothing gates it — commit a %s that measures it", baselineGlob)
			continue
		}
		if r.Failed > 0 {
			report("FAIL", key, "%d invocations failed", r.Failed)
		}
		if r.Events != b.Events {
			report("FAIL", key, "experiment_events %d != baseline %d — executed event counts are exact for a pinned seed, so this is a behaviour change, not noise",
				r.Events, b.Events)
		}
		if r.OutputSHA256 != b.OutputSHA256 {
			report("FAIL", key, "output_sha256 %s != baseline %s — the rendered tables changed", r.OutputSHA256, b.OutputSHA256)
		}
		for _, d := range defs {
			was, inBase := base.Summary[key][d.Name]
			now, inCur := r.Metrics[d.Name]
			if !inBase || !inCur {
				report("FAIL", key, "%s is missing (in baseline: %t, in this run: %t)", d.Name, inBase, inCur)
				continue
			}
			limit := was.Change.Median * (1 + d.Bound)
			beyond := now > limit
			if d.Better == "higher" {
				limit = was.Change.Median * (1 - d.Bound)
				beyond = now < limit
			}
			status := "ok  "
			if beyond {
				status = "SLOW" // a timing depends on the machine as well as on the code
				if r.Trace {
					status = "FAIL"
				}
				report(status, key, "%s %.6g %s is beyond %.6g (baseline %.6g, %s is better, bound %.0f%%)",
					d.Name, now, d.Unit, limit, was.Change.Median, d.Better, d.Bound*100)
			}
			fmt.Fprintf(stdout, "%s %-22s %-28s %12.6g -> %12.6g -> %12.6g %s\n",
				status, key, d.Name, was.Parent.Median, was.Change.Median, now, d.Unit)
		}
	}
	// A results file holds one kind of pass, end-to-end or traced; the
	// baseline's entries of that kind must all have been measured.
	for _, key := range slices.Sorted(maps.Keys(base.Runs)) {
		if !seen[key] && strings.HasSuffix(key, tracedSuffix) == cur[0].Trace {
			report("FAIL", key, "in the baseline but not measured by this run")
		}
	}

	if failed {
		fmt.Fprintln(stderr, "benchcheck: regression against the committed trajectory — if intended, say why in the PR and commit a new bench/BENCH_<date>.json")
		return 1
	}
	if slow {
		fmt.Fprintln(stderr, "benchcheck: only timing bounds tripped — they hold on the baseline's machine; elsewhere, or under load, measure the parent commit beside this one before blaming the change")
		return 3
	}
	fmt.Fprintln(stdout, "benchcheck: every workload within its bounds; output bytes and event counts equal the baseline's")
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
