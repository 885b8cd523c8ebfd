// Command halfback-sim regenerates the paper's tables and figures.
//
// Usage:
//
//	halfback-sim -fig 12                # one exhibit, paper scale
//	halfback-sim -fig all -scale 0.1    # everything, reduced
//	halfback-sim -list                  # show available exhibits
//	halfback-sim -fig 6 -csv            # CSV instead of aligned text
//	halfback-sim -fig 10 -workers 1     # force the serial sweep path
//	halfback-sim -benchjson -scale 0.05 # per-exhibit perf JSON (BENCH_<date>.json)
//	halfback-sim -fig 6 -cpuprofile cpu.out -memprofile mem.out
//	halfback-sim -fig 6 -journal run.journal   # crash-safe run
//	halfback-sim -resume run.journal           # continue a killed run
//	halfback-sim -repro run.journal.s0c8.repro.json  # replay one failed cell
//	halfback-sim -serve-worker :9001 -worker-journal w0.journal   # distributed worker
//	halfback-sim -fig all -journal run.journal -workers-remote h1:9001,h2:9001
//	halfback-sim -fig all -journal run.journal -distributed 3     # fork 3 local workers
//
// Output goes to stdout; each exhibit renders one or more tables whose
// rows are the data series of the corresponding figure. Sweeps fan
// their simulation universes out across -workers goroutines (default:
// one per CPU); the output is bit-identical for every worker count.
//
// Crash safety: -journal appends every completed cell to a write-ahead
// journal before the sweep moves on, and -resume replays those cells
// instead of re-executing them — the resumed output is bit-identical
// to an uninterrupted run because every cell derives all randomness
// from its own seed. SIGINT/SIGTERM drains gracefully (in-flight cells
// finish and are journaled, a partial progress table renders with an
// INTERRUPTED footer and the -resume command); a second signal
// force-exits. Failed cells drop a self-contained repro bundle next to
// the journal; -repro re-executes exactly that cell. Exit codes: 0
// complete, 1 partial/failed, 2 usage errors, 130 interrupted.
//
// -benchjson runs each selected exhibit once and records wall ns/op,
// allocs/op, bytes/op and scheduler events/sec into a JSON file,
// seeding the repository's performance trajectory (CI compares
// allocs/op against bench/BASELINE.json and fails on regression).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/sim"
)

// benchExhibit is one exhibit's measurement in the benchmark JSON.
type benchExhibit struct {
	ID           string  `json:"id"`
	Title        string  `json:"title"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakPending is the largest number of simultaneously pending
	// events any single universe reached, and TimerCancels the number
	// of Timer.Stop calls that prevented a firing (RTO/pacer/delayed-ACK
	// resets) — together they track event-structure changes that ns/op
	// alone cannot see. Additive fields: absent in older baselines.
	PeakPending  uint64 `json:"peak_pending,omitempty"`
	TimerCancels uint64 `json:"timer_cancels,omitempty"`
}

// benchFile is the top-level benchmark JSON document.
type benchFile struct {
	Date       string         `json:"date"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	Workers    int            `json:"workers"`
	Exhibits   []benchExhibit `json:"exhibits"`
}

// config is every flag of one invocation. The run-shape subset (fig,
// seed, scale, csv — everything that changes output bytes) round-trips
// through the journal meta so -resume reconstructs the identical run.
type config struct {
	fig        string
	seed       uint64
	scale      float64
	workers    int
	list       bool
	csv        bool
	benchjson  bool
	benchout   string
	cpuprofile string
	memprofile string
	journal    string
	resume     string
	repro      string

	// Distributed sweep modes (see distmode.go).
	serveWorker   string
	workerJournal string
	workersRemote string
	distributed   int
	speculate     time.Duration
	clusterKey    string
}

func flagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("halfback-sim", flag.ContinueOnError)
	fs.StringVar(&cfg.fig, "fig", "", "exhibit to regenerate: 1,2,5..17,table1 or 'all'")
	fs.Uint64Var(&cfg.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "scale factor in (0,1]: trial counts and horizons shrink proportionally")
	fs.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "simulation universes to run concurrently; 1 forces the serial path")
	fs.BoolVar(&cfg.list, "list", false, "list available exhibits")
	fs.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&cfg.benchjson, "benchjson", false, "benchmark the selected exhibits (default: all) and write per-exhibit ns/op, allocs/op and events/sec as JSON")
	fs.StringVar(&cfg.benchout, "benchout", "", "benchmark JSON output path (default BENCH_<date>.json)")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	fs.StringVar(&cfg.journal, "journal", "", "write-ahead cell journal for this run (must not exist yet)")
	fs.StringVar(&cfg.resume, "resume", "", "resume a journaled run: replay its completed cells, execute the rest")
	fs.StringVar(&cfg.repro, "repro", "", "replay one failed cell from its repro bundle (written next to the journal)")
	fs.StringVar(&cfg.serveWorker, "serve-worker", "", "run as a distributed-sweep worker listening on this address (:0 picks a port, announced on stdout)")
	fs.StringVar(&cfg.workerJournal, "worker-journal", "", "worker-local journal for -serve-worker; uploaded to the coordinator on (re)connect")
	fs.StringVar(&cfg.workersRemote, "workers-remote", "", "comma-separated worker addresses: coordinate the run across them (requires -journal or -resume)")
	fs.IntVar(&cfg.distributed, "distributed", 0, "single-binary distributed mode: fork N local workers and coordinate across them (requires -journal or -resume)")
	fs.DurationVar(&cfg.speculate, "speculate", 0, "re-dispatch a cell to an idle worker after this long; first result wins; 0 disables")
	fs.StringVar(&cfg.clusterKey, "cluster-key", "", "shared secret authenticating coordinator and workers (defaults to $HALFBACK_CLUSTER_KEY); required for non-loopback workers")
	return fs
}

// shapeArgs renders the run-shape flags canonically for the journal
// meta: everything that changes output bytes, nothing that doesn't
// (workers, profiles, journal paths).
func (c *config) shapeArgs() []string {
	args := []string{
		"-fig", c.fig,
		"-seed", strconv.FormatUint(c.seed, 10),
		"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
	}
	if c.csv {
		args = append(args, "-csv")
	}
	return args
}

func main() {
	// A sweep's live heap is a few MB per in-flight universe while its
	// allocation rate is high (fresh topology + flow state per cell), so
	// the default GOGC=100 collects dozens of times per exhibit for no
	// benefit. Trade a bounded multiple of that small heap for the GC
	// cycles; an explicit GOGC in the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	os.Exit(run(os.Args[1:]))
}

func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "halfback-sim: "+format+"\n", args...)
	return code
}

// closeJournal is deferred by run for the journal it opened. Close is
// the journal's last barrier, so a late sync failure shows up here: it
// is printed, and turns a clean exit into exit 1 (an interrupted run
// stays 130).
func closeJournal(j *fleet.Journal, code *int) {
	if err := j.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "halfback-sim: journal %s: %v\n", j.Path(), err)
		if *code == 0 {
			*code = 1
		}
	}
}

func run(args []string) (code int) {
	var cfg config
	fs := flagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if cfg.repro != "" {
		return runRepro(cfg.repro)
	}
	if cfg.serveWorker != "" {
		return runServeWorker(cfg)
	}

	var journal *fleet.Journal
	resuming := false
	if cfg.resume != "" {
		if cfg.journal != "" {
			return fail(2, "-journal and -resume are mutually exclusive")
		}
		j, err := fleet.ResumeJournal(cfg.resume)
		if err != nil {
			return fail(2, "%v", err)
		}
		defer closeJournal(j, &code)
		meta := j.Meta()
		if meta.Tool != "halfback-sim" {
			return fail(2, "journal %s was written by %q, not halfback-sim", cfg.resume, meta.Tool)
		}
		override := cfg
		cfg = config{}
		fs = flagSet(&cfg)
		if err := fs.Parse(meta.Args); err != nil {
			return fail(2, "journal meta args unparseable: %v", err)
		}
		cfg.workers = override.workers
		cfg.cpuprofile, cfg.memprofile = override.cpuprofile, override.memprofile
		// Distribution is an execution knob like -workers: the resume
		// command line decides it anew, not the original run's meta.
		cfg.workersRemote, cfg.distributed, cfg.speculate = override.workersRemote, override.distributed, override.speculate
		cfg.clusterKey = override.clusterKey
		journal = j
		resuming = true
		fmt.Fprintf(os.Stderr, "halfback-sim: resuming %s (%d journaled cells)\n", j.Path(), j.Replayable())
	}

	if cfg.list || (cfg.fig == "" && !cfg.benchjson) {
		fmt.Println("available exhibits:")
		for _, e := range experiment.Registry() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		if cfg.fig == "" && !cfg.list && !cfg.benchjson {
			return 2
		}
		return 0
	}
	if cfg.scale <= 0 || cfg.scale > 1 {
		return fail(2, "-scale must be in (0,1]")
	}
	if cfg.workers < 1 {
		return fail(2, "-workers must be ≥ 1")
	}

	var entries []experiment.Entry
	if cfg.fig == "all" || (cfg.fig == "" && cfg.benchjson) {
		entries = experiment.Registry()
	} else {
		e, err := experiment.Lookup(cfg.fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		entries = []experiment.Entry{e}
	}

	if cfg.journal != "" {
		if cfg.benchjson {
			return fail(2, "-journal does not apply to -benchjson runs")
		}
		j, err := fleet.CreateJournal(cfg.journal, fleet.JournalMeta{
			Tool: "halfback-sim", Exhibit: cfg.fig, Seed: cfg.seed, Args: cfg.shapeArgs(),
		})
		if err != nil {
			return fail(2, "%v", err)
		}
		defer closeJournal(j, &code)
		journal = j
	}

	stopProfiles, err := startProfiles(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer stopProfiles()

	coord, coordCleanup, code := setupCoordinator(cfg, journal, resuming)
	if code != 0 {
		return code
	}
	defer coordCleanup()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	installSignalHandler(func() {
		cancel()
		if coord != nil {
			// Cells the coordinator has queued but not leased have not
			// started anywhere; a drain does not start them.
			coord.Drain()
		}
	})

	sc := experiment.Scale{Trials: cfg.scale, Horizon: cfg.scale, Workers: cfg.workers, Ctx: ctx}
	if journal != nil {
		sc.Run = &fleet.Run{Journal: journal}
	}
	if coord != nil {
		sc.Run.Dispatch = coord
		sc.Workers = coord.Slots()
	}

	if cfg.benchjson {
		code, err := runBench(ctx, entries, cfg.seed, sc, cfg.scale, cfg.benchout)
		if err != nil {
			return fail(1, "%v", err)
		}
		return code
	}

	failed := false
	for _, e := range entries {
		start := time.Now()
		fmt.Printf("=== exhibit %s: %s (seed=%d scale=%g workers=%d)\n", e.ID, e.Title, cfg.seed, cfg.scale, cfg.workers)
		res, err := runExhibit(e, cfg.seed, sc)
		if ctx.Err() != nil {
			// Graceful drain: in-flight cells finished and were
			// journaled. Render what the run completed, point at the
			// resume command, and use the interrupt exit code.
			renderInterrupted(journal, e.ID)
			return 130
		}
		if err != nil {
			// A crashed universe surfaces as a labelled job error after
			// the rest of the sweep completed; report it and keep going
			// with the remaining exhibits.
			fmt.Fprintf(os.Stderr, "halfback-sim: exhibit %s failed: %v\n", e.ID, err)
			reportBundles(journal)
			failed = true
			continue
		}
		for _, t := range res.Tables() {
			if cfg.csv {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				t.WriteTo(os.Stdout)
				fmt.Println()
			}
		}
		reportBundles(journal)
		fmt.Printf("=== exhibit %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		return 1
	}
	if coord != nil {
		coord.ShutdownWorkers()
	}
	return 0
}

// renderInterrupted prints the partial progress table of a drained run:
// per-sweep completion counters from the journal, an INTERRUPTED footer
// and the command that continues the run.
func renderInterrupted(j *fleet.Journal, exhibitID string) {
	t := metrics.NewTable(fmt.Sprintf("Exhibit %s: interrupted run state", exhibitID),
		"sweep", "cells_done", "cells_failed", "cells_total")
	done, total := 0, 0
	if j != nil {
		for _, p := range j.Progress() {
			t.AddRow(int(p.Sweep), p.Done, p.Failed, p.Total)
			done += p.Done
			total += p.Total
		}
	}
	hint := "run with -journal to make sweeps resumable"
	if j != nil {
		hint = fmt.Sprintf("resume with: halfback-sim -resume %s", j.Path())
	}
	t.Footer = fmt.Sprintf("INTERRUPTED: %d/%d cells journaled — %s", done, total, hint)
	t.WriteTo(os.Stdout)
}

// reportBundles names the repro bundles failed cells dropped, with the
// command that replays each.
func reportBundles(j *fleet.Journal) {
	if j == nil {
		return
	}
	for _, path := range j.Bundles() {
		fmt.Fprintf(os.Stderr, "halfback-sim: repro bundle written: replay with halfback-sim -repro %s\n", path)
	}
}

// runRepro replays exactly one failed cell from its bundle: the same
// exhibit, seed and scale, with every other cell of the run skipped.
// Exit 1 when the failure reproduces, 0 when the cell now completes.
func runRepro(path string) int {
	b, err := fleet.LoadReproBundle(path)
	if err != nil {
		return fail(2, "%v", err)
	}
	if b.Meta.Tool != "halfback-sim" {
		return fail(2, "bundle %s was written by %q; replay it with that tool", path, b.Meta.Tool)
	}
	var cfg config
	if err := flagSet(&cfg).Parse(b.Meta.Args); err != nil {
		return fail(2, "bundle meta args unparseable: %v", err)
	}
	e, err := experiment.Lookup(cfg.fig)
	if err != nil {
		return fail(2, "bundle exhibit: %v", err)
	}
	fmt.Printf("=== repro: exhibit %s sweep %d cell %d (%s), seed=%d scale=%g\n",
		cfg.fig, b.Sweep, b.Cell, b.Label, cfg.seed, cfg.scale)
	fmt.Printf("=== recorded failure: %s: %s\n", b.Class, firstLine(b.Error))

	target := &fleet.CellTarget{Sweep: b.Sweep, Cell: b.Cell}
	sc := experiment.Scale{
		Trials: cfg.scale, Horizon: cfg.scale, Workers: 1,
		Run: &fleet.Run{Target: target},
	}
	_, _ = runExhibit(e, cfg.seed, sc) // cell outcome is read off the target
	ran, cellErr := target.Outcome()
	switch {
	case !ran:
		return fail(1, "cell s%dc%d never executed — bundle does not match exhibit %s at scale %g",
			b.Sweep, b.Cell, cfg.fig, cfg.scale)
	case cellErr != nil:
		fmt.Printf("=== reproduced: %s: %v\n", fleet.Classify(cellErr), cellErr)
		return 1
	default:
		fmt.Println("=== cell completed cleanly: the recorded failure did not reproduce")
		return 0
	}
}

// firstLine truncates multi-line error text (panic stacks) for the
// repro banner; the full text prints if the failure reproduces.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}

// installSignalHandler wires cooperative cancellation: the first
// SIGINT/SIGTERM cancels the sweep context (in-flight cells drain and
// are journaled), a second one force-exits.
func installSignalHandler(cancel func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "halfback-sim: interrupt — draining in-flight cells (signal again to force-quit)")
		cancel()
		<-ch
		os.Exit(130)
	}()
}

// runBench measures each exhibit once — wall time, allocations
// (process-wide MemStats deltas around the run) and scheduler events —
// and writes the benchmark JSON.
func runBench(ctx context.Context, entries []experiment.Entry, seed uint64, sc experiment.Scale, scale float64, outPath string) (int, error) {
	doc := benchFile{
		Date:       time.Now().Format("2006-01-02"),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Scale:      scale,
		Workers:    sc.Workers,
	}
	if outPath == "" {
		outPath = "BENCH_" + doc.Date + ".json"
	}
	var m0, m1 runtime.MemStats
	for _, e := range entries {
		if ctx.Err() != nil {
			return 130, nil
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ev0 := sim.ProcessedTotal()
		tc0 := sim.TimerCancelsTotal()
		sim.TakePeakPending() // reset the high-water mark for this exhibit
		start := time.Now()
		if _, err := runExhibit(e, seed, sc); err != nil {
			if ctx.Err() != nil {
				return 130, nil
			}
			return 1, fmt.Errorf("exhibit %s: %w", e.ID, err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		events := sim.ProcessedTotal() - ev0
		bx := benchExhibit{
			ID:           e.ID,
			Title:        e.Title,
			NsPerOp:      elapsed.Nanoseconds(),
			AllocsPerOp:  m1.Mallocs - m0.Mallocs,
			BytesPerOp:   m1.TotalAlloc - m0.TotalAlloc,
			Events:       events,
			PeakPending:  sim.TakePeakPending(),
			TimerCancels: sim.TimerCancelsTotal() - tc0,
		}
		if s := elapsed.Seconds(); s > 0 {
			bx.EventsPerSec = float64(events) / s
		}
		doc.Exhibits = append(doc.Exhibits, bx)
		fmt.Fprintf(os.Stderr, "bench %-7s %12d ns/op %10d allocs/op %12.0f events/sec\n",
			e.ID, bx.NsPerOp, bx.AllocsPerOp, bx.EventsPerSec)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 1, err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s (%d exhibits)\n", outPath, len(doc.Exhibits))
	return 0, nil
}

// startProfiles honours -cpuprofile and -memprofile for whichever mode
// this process runs in — a sweep, a coordinator or a -serve-worker. The
// returned stop ends the CPU profile and writes the allocation profile.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halfback-sim: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "halfback-sim: write mem profile: %v\n", err)
		}
	}, nil
}

// runExhibit converts an exhibit panic (e.g. the aggregate job error a
// sweep raises for crashed universes) into an error.
func runExhibit(e experiment.Entry, seed uint64, sc experiment.Scale) (res experiment.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.Run(seed, sc), nil
}
