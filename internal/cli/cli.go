// Package cli is the run harness the sweep tools share (DESIGN.md "Run
// harness"). A tool supplies a Shape — the flags that change its output
// bytes and the one program that makes its sweeps — and Main owns the
// rest of an invocation: the execution flags, the journal, -resume,
// -repro, profiles, the distributed modes, signals, teardown and the
// exit code.
//
// Exit codes: 0 complete, 1 failed cells or a journal error, 2 usage,
// 130 interrupted.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"unicode"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
)

// Shape is what differs between tools. One value describes one run: the
// harness makes a fresh one for every command line, journal meta or
// repro bundle it has to interpret.
type Shape interface {
	// Bind declares the tool's own flags on fs. None may share a name
	// with an execution flag.
	Bind(fs *flag.FlagSet)
	// Meta renders the run for the journal: Exhibit, Seed and, in Args,
	// every flag that changes output bytes, in canonical form. Parsing
	// Args into a fresh Shape must describe the same run; that is all
	// -resume, -repro and a worker ever know about it.
	Meta() fleet.JournalMeta
	// Check validates the parsed flags (an error is a usage error, exit
	// 2, reported before any file is created) and resolves whatever Run
	// needs from them. A Check that has answered the invocation itself
	// returns *Exit.
	Check() error
	// Run is the tool's program: it makes the tool's fleet sweeps, in a
	// fixed order, with env's context, worker count and *fleet.Run, and
	// renders to env.Out. It must not panic. It reports whether a cell
	// or sweep failed; whether the run was interrupted the harness
	// reads off the context.
	Run(env *Env) (failed bool)
}

// Exit is the error of a Check that needs no run (halfback-sim -list):
// the harness prints Text on stdout and exits with Code.
type Exit struct {
	Code int
	Text string
}

func (e *Exit) Error() string { return fmt.Sprintf("exit %d", e.Code) }

// Exec is the execution flags: how a run executes, never what it
// prints. They are declared here, once, for every tool, and -resume
// takes them from its own command line while the shape comes from the
// journal.
type Exec struct {
	Workers                int
	CPUProfile, MemProfile string
	Journal, Resume, Repro string
	ServeWorker            string
	WorkersRemote          string
	Distributed            int
	ClusterKey             string
}

func (x *Exec) bind(fs *flag.FlagSet) {
	fs.IntVar(&x.Workers, "workers", runtime.NumCPU(), "cells to simulate concurrently; 1 forces the serial path")
	fs.StringVar(&x.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&x.MemProfile, "memprofile", "", "write an allocation profile to this file on exit")
	fs.StringVar(&x.Journal, "journal", "", "write-ahead cell journal for this run (must not exist yet)")
	fs.StringVar(&x.Resume, "resume", "", "resume a journaled run: replay its completed cells, execute the rest")
	fs.StringVar(&x.Repro, "repro", "", "replay one failed cell from its repro bundle (written next to the journal)")
	fs.StringVar(&x.ServeWorker, "serve-worker", "", "run as a distributed-sweep worker listening on this address (:0 picks a port, announced on stdout)")
	fs.StringVar(&x.WorkersRemote, "workers-remote", "", "comma-separated worker addresses: coordinate the run across them (requires -journal or -resume)")
	fs.IntVar(&x.Distributed, "distributed", 0, "single-binary distributed mode: fork N local workers and coordinate across them (requires -journal or -resume)")
	fs.StringVar(&x.ClusterKey, "cluster-key", "", "shared secret authenticating coordinator and workers (defaults to $"+dist.KeyEnv+"); required for non-loopback workers")
}

// isDistributed reports whether the command line asked for a
// coordinator.
func (x *Exec) isDistributed() bool { return x.Distributed != 0 || x.WorkersRemote != "" }

// Env is what a program runs against.
type Env struct {
	Ctx context.Context
	// Workers bounds every sweep's concurrency: the -workers flag, the
	// coordinator's slots in a distributed run, every CPU on a worker,
	// one in a repro.
	Workers int
	// Run carries the journal, dispatcher, serve hook or repro target
	// into every sweep. Never nil.
	Run *fleet.Run
	// Out receives the tables. It is nil on a worker and in a repro,
	// where the program makes its sweeps and renders nothing.
	Out io.Writer
	// Exec is the command line's execution flags, for banners.
	Exec *Exec

	h *harness
}

// Logf prints one "<tool>: …" diagnostic line on stderr.
func (e *Env) Logf(format string, args ...any) { e.h.logf(format, args...) }

// ResumeHint names the command that continues an interrupted run, or
// says why it cannot be continued.
func (e *Env) ResumeHint() string {
	if e.Run.Journal == nil {
		return "run with -journal to make sweeps resumable"
	}
	return fmt.Sprintf("resume with: %s -resume %s", e.h.name, e.Run.Journal.Path())
}

// Main runs one invocation of the tool called name and returns its exit
// code. newShape returns a zero Shape.
func Main(name string, newShape func() Shape, args []string, stdout, stderr io.Writer) int {
	h := &harness{name: name, newShape: newShape, stdout: stdout, stderr: stderr, notify: notifySignals}
	return h.run(args)
}

type harness struct {
	name           string
	newShape       func() Shape
	stdout, stderr io.Writer
	// notify subscribes ch to the interrupt signals and returns the
	// unsubscribe. Tests substitute it to interrupt a run in-process.
	notify func(ch chan<- os.Signal) (stop func())
}

func notifySignals(ch chan<- os.Signal) func() {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return func() { signal.Stop(ch) }
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.stderr, h.name+": "+format+"\n", args...)
}

func (h *harness) fail(code int, format string, args ...any) int {
	h.logf(format, args...)
	return code
}

// shapeFlags is the flag set a journal's or bundle's Args are parsed
// with: the shape flags alone, so no execution flag can come from a
// meta and no shape flag of a -resume command line survives.
func (h *harness) shapeFlags(s Shape) *flag.FlagSet {
	fs := flag.NewFlagSet(h.name, flag.ContinueOnError)
	fs.SetOutput(h.stderr)
	s.Bind(fs)
	return fs
}

// shapeOf rebuilds the Shape a journal or bundle recorded.
func (h *harness) shapeOf(meta fleet.JournalMeta) (Shape, error) {
	if meta.Tool != h.name {
		return nil, fmt.Errorf("written by %q, not %s", meta.Tool, h.name)
	}
	s := h.newShape()
	if err := h.shapeFlags(s).Parse(meta.Args); err != nil {
		return nil, fmt.Errorf("meta args unparseable: %w", err)
	}
	return s, nil
}

func (h *harness) run(args []string) (code int) {
	shape, x := h.newShape(), new(Exec)
	fs := h.shapeFlags(shape)
	x.bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if x.Repro != "" {
		return h.repro(x)
	}
	if x.ServeWorker != "" {
		return h.serveWorker(x)
	}

	var journal *fleet.Journal
	var err error
	if x.Resume != "" {
		if x.Journal != "" {
			return h.fail(2, "-journal and -resume are mutually exclusive")
		}
		if journal, err = fleet.ResumeJournal(x.Resume); err != nil {
			return h.fail(2, "%v", err)
		}
		defer h.closeJournal(journal, &code)
		if shape, err = h.shapeOf(journal.Meta()); err != nil {
			return h.fail(2, "journal %s: %v", x.Resume, err)
		}
		h.logf("resuming %s (%d journaled cells)", journal.Path(), journal.Replayable())
	}

	if err := shape.Check(); err != nil {
		var exit *Exit
		if errors.As(err, &exit) {
			fmt.Fprint(h.stdout, exit.Text)
			return exit.Code
		}
		return h.fail(2, "%v", err)
	}
	switch {
	case x.Workers < 1:
		return h.fail(2, "-workers must be ≥ 1")
	case x.Distributed > 0 && x.WorkersRemote != "":
		return h.fail(2, "-distributed and -workers-remote are mutually exclusive")
	case x.Distributed < 0:
		return h.fail(2, "-distributed must be ≥ 1")
	case x.isDistributed() && x.Journal == "" && journal == nil:
		return h.fail(2, "-distributed/-workers-remote require -journal or -resume")
	}

	if x.Journal != "" {
		meta := shape.Meta()
		meta.Tool = h.name
		if journal, err = fleet.CreateJournal(x.Journal, meta); err != nil {
			return h.fail(2, "%v", err)
		}
		defer h.closeJournal(journal, &code)
	}

	stopProfiles, err := h.startProfiles(x)
	if err != nil {
		return h.fail(1, "%v", err)
	}
	defer stopProfiles()

	run := &fleet.Run{Journal: journal}
	workers := x.Workers
	var coord *dist.Coordinator
	if x.isDistributed() {
		var stop func()
		if coord, stop, err = h.launchCoordinator(x, journal); err != nil {
			return h.fail(1, "%v", err)
		}
		defer stop()
		run.Dispatch, workers = coord, coord.Slots()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer h.handleSignals(func() {
		cancel()
		if coord != nil {
			// Cells the coordinator has queued but not leased have not
			// started anywhere; a drain does not start them.
			coord.Drain()
		}
	})()

	failed := shape.Run(&Env{Ctx: ctx, Workers: workers, Run: run, Out: h.stdout, Exec: x, h: h})
	if journal != nil {
		for _, path := range journal.Bundles() {
			h.logf("repro bundle written: replay with %s -repro %s", h.name, path)
		}
	}
	switch {
	case ctx.Err() != nil:
		return 130
	case failed:
		return 1
	}
	if coord != nil {
		coord.ShutdownWorkers()
	}
	return 0
}

// closeJournal is deferred for the journal run opened. Close is the
// journal's last barrier, so a late sync failure shows up here: it is
// printed, and turns a clean exit into exit 1 (an interrupted run stays
// 130).
func (h *harness) closeJournal(j *fleet.Journal, code *int) {
	if err := j.Close(); err != nil {
		h.logf("journal %s: %v", j.Path(), err)
		if *code == 0 {
			*code = 1
		}
	}
}

// handleSignals wires cooperative cancellation: the first
// SIGINT/SIGTERM calls drain (in-flight cells finish and are journaled),
// a second one force-exits. The returned stop unsubscribes and ends the
// goroutine.
func (h *harness) handleSignals(drain func()) (stop func()) {
	ch := make(chan os.Signal, 2) // the drain signal and the force-quit one
	unsubscribe := h.notify(ch)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
		case <-done:
			return
		}
		h.logf("interrupt — draining in-flight cells (signal again to force-quit)")
		drain()
		select {
		case <-ch:
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		unsubscribe()
		close(done)
	}
}

// startProfiles honours -cpuprofile and -memprofile for whichever mode
// this process runs in — a sweep, a coordinator or a -serve-worker. The
// returned stop ends the CPU profile and writes the allocation profile.
func (h *harness) startProfiles(x *Exec) (stop func(), err error) {
	var cpuFile *os.File
	if x.CPUProfile != "" {
		if cpuFile, err = os.Create(x.CPUProfile); err != nil {
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
		if x.MemProfile == "" {
			return
		}
		f, err := os.Create(x.MemProfile)
		if err != nil {
			h.logf("-memprofile: %v", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			h.logf("write mem profile: %v", err)
		}
	}, nil
}

// launchCoordinator makes this invocation the coordinator of a
// distributed run: it resolves the worker set — the -workers-remote
// addresses or -distributed re-executions of this binary — and connects
// a Coordinator for the journal's run. On error nothing is left
// running; otherwise stop must be deferred.
func (h *harness) launchCoordinator(x *Exec, journal *fleet.Journal) (coord *dist.Coordinator, stop func(), err error) {
	opts := dist.Options{Key: dist.ResolveKey(x.ClusterKey), Logf: h.logf}
	var (
		forked *dist.Forked
		addrs  []string
	)
	if x.Distributed > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, fmt.Errorf("locate own binary: %w", err)
		}
		// Forked workers inherit the cluster key via the environment —
		// never argv — so a keyed -distributed run authenticates its
		// own children without the secret showing up in ps(1).
		var env []string
		if len(opts.Key) > 0 {
			env = append(env, dist.KeyEnv+"="+string(opts.Key))
		}
		forked, err = dist.Fork(exe, x.Distributed, func(i int) []string {
			// The workers do most of a distributed run's computing and
			// allocating; each profiles itself next to the coordinator's
			// files.
			args := []string{"-serve-worker", "127.0.0.1:0"}
			if x.CPUProfile != "" {
				args = append(args, "-cpuprofile", fmt.Sprintf("%s.w%d", x.CPUProfile, i))
			}
			if x.MemProfile != "" {
				args = append(args, "-memprofile", fmt.Sprintf("%s.w%d", x.MemProfile, i))
			}
			return args
		}, env...)
		if err != nil {
			return nil, nil, err
		}
		addrs = forked.Addrs
	} else {
		addrs = strings.FieldsFunc(x.WorkersRemote, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
		if len(addrs) == 0 {
			return nil, nil, errors.New("-workers-remote names no worker address")
		}
	}
	coord, err = dist.Connect(addrs, journal, journal.Meta(), opts)
	if err != nil {
		if forked != nil {
			forked.Stop()
		}
		return nil, nil, err
	}
	return coord, func() {
		// The fault-diagnostics line: how rough the control plane was.
		// All zeros on a clean run, and the first thing to read when a
		// flaky fleet was slower than it should have been.
		h.logf("dist: %s", coord.Metrics())
		coord.Close()
		if forked != nil {
			forked.Stop()
		}
	}, nil
}

// serveWorker is the -serve-worker mode: block serving cells until a
// coordinator sends Shutdown (or, for forked workers, stdin closes).
// The worker's stdout carries the address line dist.ServeWorker prints
// and nothing else.
func (h *harness) serveWorker(x *Exec) int {
	if x.Journal != "" || x.Resume != "" || x.isDistributed() {
		return h.fail(2, "-serve-worker excludes -journal, -resume, -workers-remote and -distributed")
	}
	stopProfiles, err := h.startProfiles(x)
	if err != nil {
		return h.fail(1, "%v", err)
	}
	defer stopProfiles()
	return dist.ServeWorker(x.ServeWorker, dist.WorkerOptions{
		Key:   dist.ResolveKey(x.ClusterKey),
		Start: h.workerStart(x),
		Logf:  h.logf,
	})
}

// workerStart is the program a coordinator's Configure starts on a
// worker: the tool's Run for the journal-described shape, rendering
// nothing. Its sweeps exist to register with the attached SweepServer,
// so pushed cells can execute; a failed cell is a journaled outcome the
// coordinator reports, not the death of the program.
func (h *harness) workerStart(x *Exec) dist.StartFunc {
	return func(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error {
		shape, err := h.shapeOf(meta)
		if err != nil {
			return fmt.Errorf("journal %w", err)
		}
		if err := shape.Check(); err != nil {
			return err
		}
		shape.Run(&Env{Ctx: ctx, Workers: runtime.NumCPU(), Run: run, Exec: x, h: h})
		return ctx.Err()
	}
}

// repro replays exactly one failed cell from its bundle: the recorded
// shape's program with every other cell skipped. Exit 1 when the
// failure reproduces, 0 when the cell now completes.
func (h *harness) repro(x *Exec) int {
	b, err := fleet.LoadReproBundle(x.Repro)
	if err != nil {
		return h.fail(2, "%v", err)
	}
	shape, err := h.shapeOf(b.Meta)
	if err == nil {
		err = shape.Check()
	}
	if err != nil {
		return h.fail(2, "bundle %s: %v", x.Repro, err)
	}
	run := strings.Join(b.Meta.Args, " ")
	fmt.Fprintf(h.stdout, "=== repro: %s %s: sweep %d cell %d (%s)\n", h.name, run, b.Sweep, b.Cell, b.Label)
	fmt.Fprintf(h.stdout, "=== recorded failure: %s: %s\n", b.Class, firstLine(b.Error))

	target := &fleet.CellTarget{Sweep: b.Sweep, Cell: b.Cell}
	// The cell's outcome is read off the target, not off the program.
	shape.Run(&Env{Ctx: context.Background(), Workers: 1, Run: &fleet.Run{Target: target}, Exec: x, h: h})
	ran, cellErr := target.Outcome()
	switch {
	case !ran:
		return h.fail(1, "cell s%dc%d never executed — bundle does not match the sweeps of %s %s", b.Sweep, b.Cell, h.name, run)
	case cellErr != nil:
		fmt.Fprintf(h.stdout, "=== reproduced: %s: %v\n", fleet.Classify(cellErr), cellErr)
		return 1
	default:
		fmt.Fprintln(h.stdout, "=== cell completed cleanly: the recorded failure did not reproduce")
		return 0
	}
}

// firstLine truncates multi-line error text (panic stacks) for the
// repro banner; the full text prints if the failure reproduces.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
