// Command halfback-sim regenerates the paper's tables and figures.
//
// Usage:
//
//	halfback-sim -fig 12                # one exhibit, paper scale
//	halfback-sim -fig all -scale 0.1    # everything, reduced
//	halfback-sim -list                  # show available exhibits
//	halfback-sim -fig 6 -csv            # CSV instead of aligned text
//
// Those are this tool's own flags. How a run executes — -workers,
// -journal/-resume/-repro, profiles, the distributed modes, signals and
// exit codes — is the run harness, internal/cli (DESIGN.md "Run
// harness"; README "Running sweeps").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"halfback/internal/cli"
	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/metrics"
)

// default.pgo, here and in cmd/fctsweep, is the profile go build applies
// to both CLIs; regenerate it after a change that moves hot code.
//go:generate sh genpgo.sh

// shape is halfback-sim's own flags. fig, seed, scale and csv change
// output bytes and round-trip through the journal meta; list answers
// the invocation itself and never reaches a journal.
type shape struct {
	fig   string
	seed  uint64
	scale float64
	csv   bool
	list  bool

	entries []experiment.Entry // resolved from fig by Check
}

func (s *shape) Bind(fs *flag.FlagSet) {
	var ids []string
	for _, e := range experiment.Registry() {
		ids = append(ids, e.ID)
	}
	fs.StringVar(&s.fig, "fig", "", "exhibit to regenerate: "+strings.Join(ids, ",")+" or 'all'")
	fs.Uint64Var(&s.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&s.scale, "scale", 1.0, "scale factor in (0,1]: trial counts and horizons shrink proportionally")
	fs.BoolVar(&s.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&s.list, "list", false, "list available exhibits")
}

func (s *shape) Meta() fleet.JournalMeta {
	args := []string{
		"-fig", s.fig,
		"-seed", strconv.FormatUint(s.seed, 10),
		"-scale", strconv.FormatFloat(s.scale, 'g', -1, 64),
	}
	if s.csv {
		args = append(args, "-csv")
	}
	return fleet.JournalMeta{Seed: s.seed, Args: args}
}

func (s *shape) Check() error {
	if s.list || s.fig == "" {
		var b strings.Builder
		b.WriteString("available exhibits:\n")
		for _, e := range experiment.Registry() {
			fmt.Fprintf(&b, "  %-7s %s\n", e.ID, e.Title)
		}
		exit := &cli.Exit{Text: b.String()}
		if !s.list {
			exit.Code = 2
		}
		return exit
	}
	if !(s.scale > 0 && s.scale <= 1) { // positive form: NaN fails it
		return errors.New("-scale must be in (0,1]")
	}
	if s.fig == "all" {
		s.entries = experiment.Registry()
		return nil
	}
	e, err := experiment.Lookup(s.fig)
	if err != nil {
		return err
	}
	s.entries = []experiment.Entry{e}
	return nil
}

// Run is the exhibit program: the selected entries in registry order, as
// one experiment.Program, so a sweep several of them read is made once,
// at its first reader. A failed exhibit does not stop the ones after
// it, on a worker either, because sweeps are numbered in the order they
// are made.
func (s *shape) Run(env *cli.Env) (failed bool) {
	sc := experiment.Scale{Trials: s.scale, Horizon: s.scale, Workers: env.Workers, Ctx: env.Ctx, Run: env.Run}
	for _, e := range experiment.Program(s.entries) {
		start := time.Now()
		if env.Out != nil {
			fmt.Fprintf(env.Out, "=== exhibit %s: %s (seed=%d scale=%g workers=%d)\n", e.ID, e.Title, s.seed, s.scale, env.Exec.Workers)
		}
		res, err := runExhibit(e, s.seed, sc)
		switch {
		case env.Ctx.Err() != nil:
			// Graceful drain: in-flight cells finished and were
			// journaled. Render what the run completed and point at the
			// resume command.
			if env.Out != nil {
				renderInterrupted(env, e.ID)
			}
			return failed
		case env.Out == nil:
			// A worker or a repro: the sweeps were made, nothing renders.
		case err != nil:
			// A crashed universe surfaces as a labelled job error after
			// the rest of the sweep completed.
			env.Logf("exhibit %s failed: %v", e.ID, err)
			failed = true
		default:
			for _, t := range res.Tables() {
				if s.csv {
					fmt.Fprintf(env.Out, "# %s\n%s\n", t.Title, t.CSV())
				} else {
					t.WriteTo(env.Out)
					fmt.Fprintln(env.Out)
				}
			}
			fmt.Fprintf(env.Out, "=== exhibit %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return failed
}

// renderInterrupted prints the partial progress table of a drained run:
// per-sweep completion counters from the journal, an INTERRUPTED footer
// and the command that continues the run.
func renderInterrupted(env *cli.Env, exhibitID string) {
	t := metrics.NewTable(fmt.Sprintf("Exhibit %s: interrupted run state", exhibitID),
		"sweep", "cells_done", "cells_failed", "cells_total")
	done, total := 0, 0
	if j := env.Run.Journal; j != nil {
		for _, p := range j.Progress() {
			t.AddRow(int(p.Sweep), p.Done, p.Failed, p.Total)
			done += p.Done
			total += p.Total
		}
	}
	t.Footer = fmt.Sprintf("INTERRUPTED: %d/%d cells journaled — %s", done, total, env.ResumeHint())
	t.WriteTo(env.Out)
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

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("halfback-sim", func() cli.Shape { return new(shape) }, args, stdout, stderr)
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
