// Command benchmark is the repository's benchmark: it builds the two CLIs
// from the checkout, runs one of five workloads as repeated real
// invocations, verifies every invocation's output against an in-process
// render, and prints each metric by name with its unit. The last line of
// standard output is one JSON object, the contract BENCHMARK.json
// describes. See README.md in this directory.
//
//	go run -C benchmark . -workload planetlab_cold -seed 1 -seconds 15 -trace 0
//	go run -C benchmark . -trace 1        # per-layer pass, all workloads
//	go run -C benchmark . -selfcheck      # two sets, compared by the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"halfback/internal/fleet"
)

// metricValue and result are the JSON object the driver reads from the
// last line of standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	Trace        bool                 `json:"trace"`
	OutputSHA256 string               `json:"output_sha256"`
	Events       uint64               `json:"experiment_events"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	Failures     []string             `json:"failures,omitempty"`
	Metrics      map[string]float64   `json:"metrics"`
	Samples      map[string][]float64 `json:"samples,omitempty"`

	// tracedS is the time the traced in-process runs spent in layer
	// calls, for the check against the spans' self times.
	tracedS float64
}

// failedShare is failed ÷ attempted invocations, warm-ups included.
func (r *runResult) failedShare() float64 { return float64(r.Failed) / float64(r.Attempted) }

func (r *runResult) fail(err error) {
	r.Failed++
	r.Failures = append(r.Failures, err.Error())
}

// setupPasses is how often a run repeats its set-up (reference render
// plus warm-up invocation); setup_s is their median, so one slow pass
// does not move it.
const setupPasses = 3

// minReps is the fewest timed repetitions a run makes, however short
// -seconds is.
const minReps = 3

// fastest is the estimator for every repeated timing of deterministic
// work: the quickest repetition. On the shared two-core machines this
// runs on, the neighbours slow whole stretches of a run by 10–50 %, and
// that noise only ever adds; back-to-back runs of one binary had medians
// 17–30 % apart and fastest repetitions about 10 % apart. The median and
// quartiles are still printed, for people.
func fastest(xs []float64) float64 { return slices.Min(xs) }

// measure is the end-to-end run: set-up, then closed-loop timed
// repetitions for about `seconds`, all untraced.
func (h *harness) measure(w *workloadDef, seed uint64, seconds int) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	var ref reference
	var setups []float64
	for pass := 0; pass < setupPasses; pass++ {
		start := time.Now()
		r := h.reference(w, seed, nil)
		if pass > 0 && (!bytes.Equal(r.out, ref.out) || r.events != ref.events) {
			return nil, fmt.Errorf("%s: two in-process renders of seed %d differ (events %d vs %d): the simulator is not repeatable within a process",
				w.name, seed, r.events, ref.events)
		}
		ref = r
		res.Attempted++
		if _, err := h.runWorkload(w, seed, ref.out, false); err != nil {
			res.fail(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.OutputSHA256, res.Events = sha(ref.out), ref.events

	var walls, cpus []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		res.Attempted++
		r, err := h.runWorkload(w, seed, ref.out, false)
		if err != nil {
			res.fail(err)
			continue
		}
		walls = append(walls, r.wallS)
		cpus = append(cpus, r.cpuS)
	}
	if len(walls) == 0 {
		return res, fmt.Errorf("%s: every repetition failed: %s", w.name, res.Failures[0])
	}
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(ref.events) / w
	}
	res.Samples["wall_s"], res.Samples["cpu_s"], res.Samples["setup_s"] = walls, cpus, setups
	res.Samples["events_per_s"] = rates
	res.Metrics["wall_s"] = fastest(walls)
	res.Metrics["cpu_s"] = fastest(cpus)
	// Host time per simulated event: stays comparable when a change
	// legitimately moves the event count.
	res.Metrics["events_per_s"] = float64(ref.events) / fastest(walls)
	res.Metrics["setup_s"] = median(setups)
	return res, nil
}

// traced is the per-layer pass: the workload's program in process with
// spans at the layer boundaries, a few verified invocations for the
// process-level numbers, the fabric comparisons, and the probes.
func (h *harness) traced(w *workloadDef, seed uint64) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Trace: true, Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	m := res.Metrics
	m["cmd.build_s"] = h.buildS

	// In-process runs: the first fills the workload memo and grows the
	// heap; then traced and untraced twins alternate, and the faster of
	// each kind is compared, so a slow stretch of the machine does not
	// read as tracing overhead.
	warm := h.reference(w, seed, nil)
	var tr, plain reference
	for i := 0; i < 2; i++ {
		var t reference
		h.tr.in("inprocess", func() { t = h.reference(w, seed, h.tr) })
		p := h.reference(w, seed, nil)
		for _, r := range []reference{t, p} {
			if !bytes.Equal(r.out, warm.out) || r.events != warm.events {
				return nil, fmt.Errorf("%s: in-process renders of seed %d differ (events %d vs %d)", w.name, seed, r.events, warm.events)
			}
		}
		res.tracedS += t.totalS()
		if i == 0 || t.totalS() < tr.totalS() {
			tr = t
		}
		if i == 0 || p.totalS() < plain.totalS() {
			plain = p
		}
	}
	res.OutputSHA256, res.Events = sha(warm.out), warm.events
	m["experiment.run_s"] = tr.runS
	m["experiment.tables_s"] = tr.tablesS
	m["metrics.render_s"] = tr.renderS
	m["experiment.events"] = float64(tr.events)
	m["experiment.cells"] = float64(w.cells)
	m["experiment.allocs_per_event"] = float64(tr.mallocs) / float64(tr.events)
	m["experiment.bytes_per_event"] = float64(tr.allocBytes) / float64(tr.events)
	m["sim.timer_cancels"] = float64(tr.timerCancels)
	m["sim.peak_pending"] = float64(tr.peakPending)
	m["trace_overhead_share"] = (tr.totalS() - plain.totalS()) / plain.totalS()

	reps := h.verifiedReps(res, w, seed, warm.out, 3)
	if len(reps) == 0 {
		return res, fmt.Errorf("%s: every invocation failed: %s", w.name, res.Failures[0])
	}
	wall := fastest(column(reps, func(r rep) float64 { return r.wallS }))
	m["cmd.overhead_share"] = (wall - plain.totalS()) / wall
	m["cmd.peak_rss_mb"] = median(column(reps, func(r rep) float64 { return r.rssMB }))

	if err := h.fabric(res, w, seed, warm.out, reps); err != nil {
		return res, err
	}
	probes, err := h.runProbes()
	if err != nil {
		return res, err
	}
	for k, v := range probes {
		m[k] = v
	}
	return res, nil
}

// verifiedReps runs w n times, checking each invocation; failures are
// counted on res and left out of the returned repetitions. The last
// repetition's journal stays on disk for the caller.
func (h *harness) verifiedReps(res *runResult, w *workloadDef, seed uint64, ref []byte, n int) []rep {
	var reps []rep
	for i := 0; i < n; i++ {
		res.Attempted++
		r, err := h.runWorkload(w, seed, ref, i == n-1)
		if err != nil {
			res.fail(err)
			continue
		}
		reps = append(reps, r)
	}
	return reps
}

func column(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// fabric measures what only a pair of invocations shows: start-up cost,
// what the journal and the RPC path cost over the bare pool, and what a
// second worker buys. own are the repetitions of w already made, reused
// when w is one side of a comparison.
func (h *harness) fabric(res *runResult, w *workloadDef, seed uint64, ownRef []byte, own []rep) error {
	m := res.Metrics
	wallOf := func(r rep) float64 { return r.wallS }
	cpuOf := func(r rep) float64 { return r.cpuS }

	// plain runs an unverifiable-by-render command n times (exit status
	// is still checked) and returns the clean repetitions.
	plain := func(n int, args ...string) []rep {
		var reps []rep
		for i := 0; i < n; i++ {
			h.removeJournals()
			res.Attempted++
			r := h.exec("halfback-sim", args...)
			if r.err != nil {
				res.fail(fmt.Errorf("halfback-sim %v: %v\n%s", args, r.err, tail(r.stderr)))
				continue
			}
			reps = append(reps, r)
		}
		h.removeJournals()
		return reps
	}
	need := func(name string, sets ...[]rep) error {
		for _, reps := range sets {
			if len(reps) == 0 {
				return fmt.Errorf("%s: no clean invocation: %s", name, res.Failures[len(res.Failures)-1])
			}
		}
		return nil
	}

	launch := plain(5, "-fig", "table1")
	if err := need("cmd.launch_ms", launch); err != nil {
		return err
	}
	m["cmd.launch_ms"] = fastest(column(launch, wallOf)) * 1e3
	fork := plain(3, "-fig", "table1", "-distributed", "2", "-journal", h.journalPath())
	if err := need("fleet.dist.fork_ms", fork); err != nil {
		return err
	}
	m["fleet.dist.fork_ms"] = fastest(column(fork, wallOf)) * 1e3

	// The three ways to run the same Fig 6 cells: bare pool, journaled
	// pool, forked loopback workers. All must print the same bytes.
	fj, _ := lookupWorkload("fleet_journal")
	dl, _ := lookupWorkload("dist_loopback")
	fleetRef := ownRef
	if w != fj && w != dl {
		fleetRef = h.reference(fj, seed, nil).out
	}
	// The pool's repetitions come last, so the journal left on disk for
	// scanJournal is the pool's.
	distReps := own
	if w != dl {
		distReps = h.verifiedReps(res, dl, seed, fleetRef, 1)
	}
	var journalReps []rep
	if w == fj {
		journalReps = append(own, h.verifiedReps(res, fj, seed, fleetRef, 1)...)
	} else {
		journalReps = h.verifiedReps(res, fj, seed, fleetRef, 2)
	}
	if err := need("fleet_journal and dist_loopback", journalReps, distReps); err != nil {
		return err
	}
	if err := h.scanJournal(m, fj); err != nil {
		return err
	}
	bare := &workloadDef{name: "fleet_bare", bin: fj.bin, args: func(seed uint64, _ string) []string { return fj.args(seed, "") }}
	bareReps := h.verifiedReps(res, bare, seed, fleetRef, 3)
	if err := need("fleet_bare", bareReps); err != nil {
		return err
	}
	journalWall := fastest(column(journalReps, wallOf))
	m["fleet.journal_overhead_ratio"] = journalWall / fastest(column(bareReps, wallOf))
	m["fleet.dist.overhead_ratio"] = fastest(column(distReps, wallOf)) / journalWall
	m["fleet.dist.cpu_ratio"] = fastest(column(distReps, cpuOf)) / fastest(column(journalReps, cpuOf))
	m["fleet.dist.redials"] = float64(h.dist.redials)
	m["fleet.dist.reassignments"] = float64(h.dist.reassignments)

	// Fig 17 is CPU-bound with no journal: the cleanest read of what the
	// second worker buys. 1 is perfect scaling.
	w1 := plain(1, "-fig", "17", "-scale", "0.05", "-seed", fmtSeed(seed), "-workers", "1")
	w2 := plain(1, "-fig", "17", "-scale", "0.05", "-seed", fmtSeed(seed), "-workers", "2")
	if err := need("fleet.scaling_eff_w2", w1, w2); err != nil {
		return err
	}
	if !bytes.Equal(stripBanners(w1[0].stdout), stripBanners(w2[0].stdout)) {
		return errors.New("fig 17: -workers 1 and -workers 2 print different bytes")
	}
	m["fleet.scaling_eff_w2"] = w1[0].wallS / (2 * w2[0].wallS)
	return nil
}

// scanJournal reads the journal the last fleet_journal invocation left:
// its size per cell and how long a resume would take to decode it.
func (h *harness) scanJournal(m map[string]float64, fj *workloadDef) error {
	data, err := os.ReadFile(h.journalPath())
	if err != nil {
		return fmt.Errorf("fleet_journal left no journal: %w", err)
	}
	defer h.removeJournals()
	var scan *fleet.JournalScan
	d := perOp(1, nil, func() {
		h.tr.in("fleet.ScanJournal", func() { scan, err = fleet.ScanJournal(data) })
	})
	if err != nil {
		return err
	}
	if scan.TailErr != nil || len(scan.Records) != fj.cells {
		return fmt.Errorf("journal holds %d records (tail: %v), want one per cell = %d", len(scan.Records), scan.TailErr, fj.cells)
	}
	m["fleet.journal_scan_ms"] = ms(d)
	m["fleet.journal_bytes_per_cell"] = float64(len(data)) / float64(len(scan.Records))
	return nil
}

// report prints one run for people, then for the driver.
func report(res *runResult, names []metricDef) result {
	fmt.Printf("# workload=%s seed=%d trace=%t output_sha256=%s experiment.events=%d\n",
		res.Workload, res.Seed, res.Trace, res.OutputSHA256, res.Events)
	out := result{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, md := range names {
		v, ok := res.Metrics[md.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("%-40s MISSING\n", md.Name)
			out.Correct = false
			continue
		}
		out.Metrics[md.Name] = metricValue{Value: v, Unit: md.Unit}
		line := fmt.Sprintf("%-40s %14.6g %-6s", md.Name, v, md.Unit)
		if xs := res.Samples[md.Name]; len(xs) > 0 {
			q1, med, q3 := quartiles(xs)
			line += fmt.Sprintf(" n=%d, median %.6g, quartiles %.6g .. %.6g", len(xs), med, q1, q3)
		}
		if md.Bound > 0 {
			line += fmt.Sprintf(" [regression bound %.0f%%]", md.Bound*100)
		}
		fmt.Println(line)
	}
	if len(out.Metrics) != len(res.Metrics) {
		// Every number a run produces must be declared, or comparisons
		// between commits silently lose it.
		for name := range res.Metrics {
			if _, ok := out.Metrics[name]; !ok {
				fmt.Printf("%-40s UNDECLARED\n", name)
				out.Correct = false
			}
		}
	}
	fmt.Printf("%-40s %14.6g %-6s %d of %d invocations\n", "failed_share", res.failedShare(), "share", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	return out
}

func main() { os.Exit(run()) }

func run() int {
	var (
		only      = flag.String("workload", "", "workload to run (default: all five, one after another)")
		seed      = flag.Uint64("seed", 1, "workload seed, passed to every invocation as -seed")
		seconds   = flag.Int("seconds", 0, "how long the timed repetitions of a run last (default 15, run_seconds of BENCHMARK.json)")
		traceFlag = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and fail if any metric moves by more than its bound")
	)
	flag.StringVar(only, "only", "", "alias of -workload")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-selfcheck]")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer h.close()
	if *seconds <= 0 {
		*seconds = defaultSeconds
	}

	var selected []*workloadDef
	for i := range workloads {
		selected = append(selected, &workloads[i])
	}
	if *only != "" {
		w, err := lookupWorkload(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		selected = []*workloadDef{w}
	}
	tracing := *traceFlag == 1
	if runtime.NumCPU() < 2 {
		for _, w := range selected {
			if w.parallel || tracing {
				// Two workers on one CPU measure the scheduler, not the
				// fabric; say so instead of printing a number.
				fmt.Printf("unresolved: %s needs at least 2 CPUs (nproc=%d); not run\n", w.name, runtime.NumCPU())
				return 3
			}
		}
	}

	fmt.Printf("# halfback benchmark: seed=%d seconds=%d trace=%d selfcheck=%t\n", *seed, *seconds, *traceFlag, *selfcheck)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s scratch_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), h.commit(), h.fsType)
	if tracing {
		h.tr = newTracer("")
	}
	if err := h.build(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# built halfback-sim and fctsweep in %.3f s\n", h.buildS)

	sets := 1
	if *selfcheck {
		sets, tracing = 2, false
	}
	var all [][]*runResult
	// The driver reads the last line of standard output, so the result
	// objects are held back until everything for people has been printed.
	var resultLines []string
	code := 0
	for set := 0; set < sets; set++ {
		var results []*runResult
		for _, w := range selected {
			journal := ""
			if w.journal {
				journal = "<journal>"
			}
			fmt.Printf("# command: %s %v\n", w.bin, w.args(*seed, journal))
			var res *runResult
			names := endToEnd
			if tracing {
				h.tr.workload = w.name
				names = perLayer()
				res, err = h.traced(w, *seed)
			} else {
				res, err = h.measure(w, *seed, *seconds)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			results = append(results, res)
			out := report(res, names)
			if !out.Correct {
				code = 1
			}
			line, _ := json.Marshal(out)
			resultLines = append(resultLines, string(line))
		}
		all = append(all, results)
	}
	if err := h.writeOut(all, tracing); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *selfcheck && !compareSets(all[0], all[1]) {
		code = 1
	}
	for _, line := range resultLines {
		fmt.Println(line)
	}
	return code
}

// writeOut leaves the run's results, and the spans of a traced pass,
// under benchmark/out/ for comparison between commits.
func (h *harness) writeOut(all [][]*runResult, tracing bool) error {
	dir := filepath.Join(h.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if !tracing {
		return nil
	}
	fillSelfTimes(h.tr.spans)
	for _, res := range all[0] {
		// The in-process runs' spans are leaves under their roots, so
		// their self times must add up to what the same calls were timed
		// at (plus the roots' own GC and counter reads).
		fmt.Printf("# trace: %s: in-process self times sum to %.4f s, layer calls measured %.4f s\n",
			res.Workload, selfTotal(h.tr.spans, res.Workload, "inprocess"), res.tracedS)
	}
	return h.tr.write(filepath.Join(dir, "trace.json"))
}

// compareSets is -selfcheck's verdict: two sets of runs of the same
// binaries must agree within each metric's own bound, or the bound
// cannot tell a regression from the weather.
func compareSets(a, b []*runResult) bool {
	ok := true
	fmt.Println("# selfcheck: set 1 vs set 2")
	for i := range a {
		for _, md := range endToEnd {
			v1, v2 := a[i].Metrics[md.Name], b[i].Metrics[md.Name]
			d := math.Abs(worseBy(v1, v2, md.Better))
			verdict := "ok"
			if !(d <= md.Bound) {
				verdict, ok = "DIFFER", false
			}
			q1a, _, q3a := quartiles(a[i].Samples[md.Name])
			q1b, _, q3b := quartiles(b[i].Samples[md.Name])
			fmt.Printf("%-18s %-14s %12.6g [%.6g .. %.6g] vs %12.6g [%.6g .. %.6g] %s  moved %.1f%%, bound %.0f%%  %s\n",
				a[i].Workload, md.Name, v1, q1a, q3a, v2, q1b, q3b, md.Unit, d*100, md.Bound*100, verdict)
		}
		if a[i].Failed != 0 || b[i].Failed != 0 {
			fmt.Printf("%-18s failed_share %g vs %g, want 0\n", a[i].Workload, a[i].failedShare(), b[i].failedShare())
			ok = false
		}
	}
	return ok
}
