// Command fctsweep runs ad-hoc flow-completion-time sweeps outside the
// paper's fixed exhibits: pick schemes, a utilization range, flow size,
// buffer and RTT, and get the FCT curve. Useful for exploring the
// latency/safety tradeoff beyond the paper's operating points.
//
// Examples:
//
//	fctsweep -schemes Halfback,JumpStart -utils 10,30,50,70
//	fctsweep -schemes Halfback -flow 500000 -buffer 30000 -rtt 20ms
//	fctsweep -schemes Halfback -utils 10,30 -journal run.journal
//	fctsweep -resume run.journal
//	fctsweep -serve-worker :9001 -worker-journal w0.journal   # distributed worker
//	fctsweep -utils 10,30,50 -journal run.journal -distributed 3
//
// Crash safety: with -journal every completed cell is appended to a
// write-ahead journal before the sweep moves on. SIGINT/SIGTERM drains
// gracefully — in-flight cells finish and are journaled, the partial
// table renders with an INTERRUPTED footer, and the printed
// `fctsweep -resume <journal>` command continues the run, replaying
// journaled cells and executing only the missing ones; the final table
// is bit-identical to an uninterrupted run. A second signal
// force-exits. Exit codes: 0 complete, 1 partial/failed cells, 2 usage
// errors, 130 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// config is every knob of one sweep. The run-shape subset (everything
// that influences output bytes) round-trips through the journal meta so
// -resume reconstructs the identical sweep.
type config struct {
	schemes     string
	utils       string
	flowBytes   int
	bufBytes    int
	rtt         time.Duration
	rateMbps    int64
	horizon     time.Duration
	seed        uint64
	workers     int
	adversity   string
	misbehave   string
	deadline    time.Duration
	maxRetx     int
	maxTimeouts int
	cpuprofile  string
	memprofile  string
	journal     string
	resume      string

	// Distributed sweep modes (see distmode.go).
	serveWorker   string
	workerJournal string
	workersRemote string
	distributed   int
	speculate     time.Duration
	clusterKey    string
}

// flagSet binds a fresh FlagSet to cfg so the same parser handles both
// the real command line and the args stored in a journal's meta.
func flagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("fctsweep", flag.ContinueOnError)
	fs.StringVar(&cfg.schemes, "schemes", "Halfback,JumpStart,TCP", "comma-separated scheme names")
	fs.StringVar(&cfg.utils, "utils", "10,30,50,70", "comma-separated utilization percentages")
	fs.IntVar(&cfg.flowBytes, "flow", 100_000, "flow size in bytes")
	fs.IntVar(&cfg.bufBytes, "buffer", 115_000, "bottleneck buffer in bytes")
	fs.DurationVar(&cfg.rtt, "rtt", 60*time.Millisecond, "path round-trip propagation")
	fs.Int64Var(&cfg.rateMbps, "rate", 15, "bottleneck rate in Mbit/s")
	fs.DurationVar(&cfg.horizon, "horizon", 60*time.Second, "virtual seconds of arrivals per cell")
	fs.Uint64Var(&cfg.seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "cells to simulate concurrently; 1 forces the serial path")
	fs.StringVar(&cfg.adversity, "adversity", "none", "fault-injection preset on the bottleneck, both directions: "+strings.Join(netem.AdversityPresetNames(), "|"))
	fs.StringVar(&cfg.misbehave, "misbehave", "none", "replace every receiver with a Byzantine attacker: none|"+strings.Join(ptest.AttackerNames(), "|"))
	fs.DurationVar(&cfg.deadline, "flowdeadline", 0, "per-flow lifetime bound; flows abort (deadline) when it elapses; 0 disables")
	fs.IntVar(&cfg.maxRetx, "maxretx", 0, "per-flow retransmission budget; flows abort (retx-budget) beyond it; 0 disables")
	fs.IntVar(&cfg.maxTimeouts, "maxtimeouts", 0, "consecutive-RTO give-up; flows abort (retx-budget) beyond it; 0 selects the default of 15, negative retries forever")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	fs.StringVar(&cfg.journal, "journal", "", "write-ahead cell journal for this run (must not exist yet)")
	fs.StringVar(&cfg.resume, "resume", "", "resume a journaled run: replay its completed cells, execute the rest")
	fs.StringVar(&cfg.serveWorker, "serve-worker", "", "run as a distributed-sweep worker listening on this address (:0 picks a port, announced on stdout)")
	fs.StringVar(&cfg.workerJournal, "worker-journal", "", "worker-local journal for -serve-worker; uploaded to the coordinator on (re)connect")
	fs.StringVar(&cfg.workersRemote, "workers-remote", "", "comma-separated worker addresses: coordinate the sweep across them (requires -journal or -resume)")
	fs.IntVar(&cfg.distributed, "distributed", 0, "single-binary distributed mode: fork N local workers and coordinate across them (requires -journal or -resume)")
	fs.DurationVar(&cfg.speculate, "speculate", 0, "re-dispatch a cell to an idle worker after this long; first result wins; 0 disables")
	fs.StringVar(&cfg.clusterKey, "cluster-key", "", "shared secret authenticating coordinator and workers (defaults to $HALFBACK_CLUSTER_KEY); required for non-loopback workers")
	return fs
}

// shapeArgs renders the run-shape flags canonically for the journal
// meta: everything that changes output bytes, nothing that doesn't
// (workers, profiles, journal paths).
func (c *config) shapeArgs() []string {
	return []string{
		"-schemes", c.schemes,
		"-utils", c.utils,
		"-flow", strconv.Itoa(c.flowBytes),
		"-buffer", strconv.Itoa(c.bufBytes),
		"-rtt", c.rtt.String(),
		"-rate", strconv.FormatInt(c.rateMbps, 10),
		"-horizon", c.horizon.String(),
		"-seed", strconv.FormatUint(c.seed, 10),
		"-adversity", c.adversity,
		"-misbehave", c.misbehave,
		"-flowdeadline", c.deadline.String(),
		"-maxretx", strconv.Itoa(c.maxRetx),
		"-maxtimeouts", strconv.Itoa(c.maxTimeouts),
	}
}

func main() { os.Exit(run(os.Args[1:])) }

func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "fctsweep: "+format+"\n", args...)
	return code
}

// closeJournal is deferred by run for the journal it opened. Close is
// the journal's last barrier, so a late sync failure shows up here: it
// is printed, and turns a clean exit into exit 1 (an interrupted run
// stays 130).
func closeJournal(j *fleet.Journal, code *int) {
	if err := j.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "fctsweep: journal %s: %v\n", j.Path(), err)
		if *code == 0 {
			*code = 1
		}
	}
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
			fmt.Fprintf(os.Stderr, "fctsweep: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "fctsweep: write mem profile: %v\n", err)
		}
	}, nil
}

func run(args []string) (code int) {
	var cfg config
	fs := flagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if cfg.serveWorker != "" {
		return runServeWorker(cfg)
	}

	// -resume: the journal's meta is the source of truth for the run
	// shape; only execution knobs (workers, profiles) may be overridden
	// on the resume command line.
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
		if meta.Tool != "fctsweep" {
			return fail(2, "journal %s was written by %q, not fctsweep", cfg.resume, meta.Tool)
		}
		override := cfg // what the resume command line said
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
		fmt.Fprintf(os.Stderr, "fctsweep: resuming %s (%d journaled cells)\n", j.Path(), j.Replayable())
	}

	stopProfiles, err := startProfiles(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer stopProfiles()

	if cfg.workers < 1 {
		return fail(2, "-workers must be ≥ 1")
	}
	sw, err := newSweep(cfg)
	if err != nil {
		return fail(2, "%v", err)
	}

	if cfg.journal != "" {
		j, err := fleet.CreateJournal(cfg.journal, fleet.JournalMeta{
			Tool: "fctsweep", Seed: cfg.seed, Args: cfg.shapeArgs(),
		})
		if err != nil {
			return fail(2, "%v", err)
		}
		defer closeJournal(j, &code)
		journal = j
	}

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

	// The misbehave column (flows aborted for peer misbehavior plus
	// total flagged ACKs) appears only when an attacker is attached, so
	// honest sweeps render bit-identically to earlier releases.
	cols := []string{"scheme", "utilization_%", "flows", "mean_fct_ms", "p50_ms", "p99_ms", "mean_norm_retx", "completion", "aborted"}
	if cfg.misbehave != "none" {
		cols = append(cols, "misbehave")
	}
	table := metrics.NewTable(
		fmt.Sprintf("FCT sweep: %dB flows, %dMbps bottleneck, %v RTT, %dB buffer", cfg.flowBytes, cfg.rateMbps, cfg.rtt, cfg.bufBytes),
		cols...)
	// Every (scheme, utilization) cell is an independent universe; fan
	// them out and add the rows back in sweep order.
	n := sw.n()
	workers := cfg.workers
	fleetRun := &fleet.Run{Journal: journal}
	if coord != nil {
		fleetRun.Dispatch = coord
		workers = coord.Slots()
	}
	rows, err := sw.mapCells(ctx, workers, fleetRun)

	// Render every cell honestly: real rows for completed cells,
	// FAILED(class) rows for crashed ones, nothing for cells a drain
	// skipped (they are still pending, not failed).
	cellErr := make([]error, n)
	for _, je := range fleet.JobErrors(err) {
		cellErr[je.Index] = je
	}
	failed := 0
	for i, row := range rows {
		switch {
		case cellErr[i] == nil:
			table.AddRow(row...)
		case fleet.Classify(cellErr[i]) == fleet.ClassCanceled:
			// skipped by the drain
		default:
			failed++
			name, util := sw.cell(i)
			row := []any{name, util * 100, "-", metrics.FailedCell(fleet.Classify(cellErr[i])),
				"-", "-", "-", "-", "-"}
			for len(row) < len(cols) {
				row = append(row, "-")
			}
			table.AddRow(row...)
		}
	}

	interrupted := fleet.Interrupted(err) || ctx.Err() != nil
	if interrupted {
		done := n
		for _, e := range cellErr {
			if e != nil {
				done--
			}
		}
		table.Footer = fmt.Sprintf("INTERRUPTED: %d/%d cells complete — %s", done, n, resumeHint(journal))
	}
	table.WriteTo(os.Stdout)

	for _, e := range fleet.JobErrors(err) {
		if fleet.Classify(e) != fleet.ClassCanceled {
			fmt.Fprintf(os.Stderr, "fctsweep: %v\n", e)
		}
	}
	switch {
	case interrupted:
		return 130
	case failed > 0:
		return 1
	}
	if coord != nil {
		coord.ShutdownWorkers()
	}
	return 0
}

// sweep is one validated run shape: the parsed scheme × utilization
// grid plus everything a cell needs. It exists so the coordinator path
// in run() and the worker-side start function execute the identical
// cell program.
type sweep struct {
	cfg   config
	names []string
	utils []float64
	adv   netem.Adversity
}

func newSweep(cfg config) (*sweep, error) {
	sw := &sweep{cfg: cfg}
	for _, f := range strings.Split(cfg.utils, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 100 {
			return nil, fmt.Errorf("bad utilization %q", f)
		}
		sw.utils = append(sw.utils, v/100)
	}
	sw.names = strings.Split(cfg.schemes, ",")
	for i := range sw.names {
		sw.names[i] = strings.TrimSpace(sw.names[i])
		if _, err := scheme.New(sw.names[i]); err != nil {
			return nil, err
		}
	}
	var err error
	if sw.adv, err = netem.AdversityPreset(cfg.adversity); err != nil {
		return nil, err
	}
	if cfg.misbehave != "none" {
		found := false
		for _, a := range ptest.AttackerNames() {
			found = found || a == cfg.misbehave
		}
		if !found {
			return nil, fmt.Errorf("bad -misbehave %q (want none|%s)",
				cfg.misbehave, strings.Join(ptest.AttackerNames(), "|"))
		}
	}
	return sw, nil
}

func (s *sweep) n() int { return len(s.names) * len(s.utils) }

func (s *sweep) cell(i int) (string, float64) {
	return s.names[i/len(s.utils)], s.utils[i%len(s.utils)]
}

// mapCells fans the grid out through the fleet — run's Journal,
// Dispatch or Serve hooks decide where each cell actually executes.
func (s *sweep) mapCells(ctx context.Context, workers int, run *fleet.Run) ([][]any, error) {
	cfg := s.cfg
	return fleet.MapOpts(fleet.Options{
		Ctx: ctx, Workers: workers, Run: run,
		Label: func(i int) string {
			name, util := s.cell(i)
			return fmt.Sprintf("%s @%.0f%%", name, util*100)
		},
	}, s.n(), func(i, attempt int) ([]any, error) {
		name, util := s.cell(i)
		return runCell(cfg.seed, name, util, cfg.flowBytes, cfg.bufBytes, cfg.rtt,
			cfg.rateMbps*netem.Mbps, cfg.horizon, s.adv, cfg.deadline, cfg.maxRetx, cfg.maxTimeouts,
			cfg.misbehave), nil
	})
}

// resumeHint names the command that continues this run, or says why it
// cannot be continued.
func resumeHint(j *fleet.Journal) string {
	if j == nil {
		return "run with -journal to make sweeps resumable"
	}
	return fmt.Sprintf("resume with: fctsweep -resume %s", j.Path())
}

// installSignalHandler wires cooperative cancellation: the first
// SIGINT/SIGTERM cancels the sweep context (in-flight cells drain and
// are journaled), a second one force-exits.
func installSignalHandler(cancel func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "fctsweep: interrupt — draining in-flight cells (signal again to force-quit)")
		cancel()
		<-ch
		os.Exit(130)
	}()
}

func runCell(seed uint64, name string, util float64, flowBytes, bufBytes int,
	rtt time.Duration, rateBps int64, horizon time.Duration, adv netem.Adversity,
	deadline time.Duration, maxRetx, maxTimeouts int, misbehave string) []any {
	cfg := netem.DumbbellConfig{
		Pairs: 16, BottleneckBps: rateBps, RTT: rtt, BufferBytes: bufBytes,
	}.Defaulted()
	s := experiment.NewDumbbellSim(seed, cfg)
	s.Opts.FlowDeadline = sim.Duration(deadline)
	s.Opts.MaxRetx = maxRetx
	s.Opts.MaxTimeouts = maxTimeouts
	s.D.Bottleneck.SetAdversity(adv)
	s.D.Reverse.SetAdversity(adv)
	inst := scheme.MustNew(name)
	dist := workload.Fixed{Bytes: flowBytes}
	ia := workload.MeanInterarrivalFor(dist.Mean(), util, cfg.BottleneckBps)
	arrivals := workload.PoissonArrivalsCached(s.Rng.ForkNamed("arrivals"), dist, ia, horizon)
	for _, a := range arrivals {
		conn := s.StartFlowAt(a.At, inst, a.Bytes)
		if misbehave != "none" {
			ptest.Attach(conn, misbehave)
		}
	}
	s.Run(sim.Duration(horizon) + 120*sim.Second)

	var fcts, retx []float64
	for _, st := range s.Finished {
		if misbehave == "none" {
			fcts = append(fcts, st.FCT().Seconds()*1000)
		} else {
			// A Byzantine receiver never reports completion; the
			// sender-side finish time is the only meaningful FCT.
			fcts = append(fcts, st.SenderDone.Sub(st.Start).Seconds()*1000)
		}
		retx = append(retx, float64(st.NormalRetx))
	}
	aborted := 0
	for _, c := range s.Conns() {
		if c.Stats.Aborted && c.Stats.AbortReason != transport.AbortExternal {
			aborted++
		}
	}
	sum := metrics.Summarize(fcts)
	row := []any{
		name, util * 100, len(arrivals), sum.Mean, sum.Median(), sum.Percentile(99),
		metrics.Summarize(retx).Mean, s.CompletionRate(), aborted,
	}
	if misbehave != "none" {
		var peerAborts, flagged int64
		for _, c := range s.Conns() {
			if c.Stats.AbortReason == transport.AbortPeerMisbehavior {
				peerAborts++
			}
			flagged += c.Stats.MisbehaviorTotal()
		}
		row = append(row, fmt.Sprintf("%d aborts/%d flagged", peerAborts, flagged))
	}
	return row
}
