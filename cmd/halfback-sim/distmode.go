// Distributed sweep modes (DESIGN.md §12). halfback-sim grows three:
//
//	halfback-sim -serve-worker :9001 -worker-journal w0.journal
//	halfback-sim -fig all -journal run.journal -workers-remote host1:9001,host2:9001
//	halfback-sim -fig all -journal run.journal -distributed 3
//
// A worker is a net/rpc server that waits for a coordinator's
// Configure, re-derives the whole run from the journal meta it carries
// (both sides run the same deterministic program), and executes exactly
// the cells pushed to it. The coordinator owns the canonical journal:
// every cell result merges into it before the sweep advances, so a
// distributed run is byte-identical to a serial one and -resume works
// across coordinator and worker crashes alike.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
)

// distLogf is the stderr diagnostic sink for dist machinery — workers
// must keep stdout clean (the address line is parsed off it).
func distLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "halfback-sim: "+format+"\n", args...)
}

// runServeWorker is the -serve-worker mode: block serving cells until a
// coordinator sends Shutdown (or, for forked workers, stdin closes).
func runServeWorker(cfg config) int {
	if cfg.journal != "" || cfg.resume != "" || cfg.workersRemote != "" || cfg.distributed > 0 {
		return fail(2, "-serve-worker excludes -journal, -resume, -workers-remote and -distributed")
	}
	stopProfiles, err := startProfiles(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer stopProfiles()
	return dist.ServeWorker(dist.ServeConfig{
		Addr:        cfg.serveWorker,
		JournalPath: cfg.workerJournal,
		Key:         dist.ResolveKey(cfg.clusterKey),
		Start:       exhibitStart,
		Logf:        distLogf,
	})
}

// exhibitStart runs the journal-described exhibit program on a worker:
// the same entries loop as run(), minus all rendering — the worker's
// Map calls only exist to register sweeps with the attached SweepServer
// so pushed cells can execute. Sweep IDs are assigned in Map-call
// order, so this must mirror run()'s control flow exactly: iterate the
// same entries and keep going past a failed exhibit (failures surface
// as journaled outcomes, not as program death).
func exhibitStart(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error {
	if meta.Tool != "halfback-sim" {
		return fmt.Errorf("journal written by %q, not halfback-sim", meta.Tool)
	}
	var cfg config
	if err := flagSet(&cfg).Parse(meta.Args); err != nil {
		return fmt.Errorf("journal meta args unparseable: %w", err)
	}
	var entries []experiment.Entry
	if cfg.fig == "all" {
		entries = experiment.Registry()
	} else {
		e, err := experiment.Lookup(cfg.fig)
		if err != nil {
			return err
		}
		entries = []experiment.Entry{e}
	}
	sc := experiment.Scale{Trials: cfg.scale, Horizon: cfg.scale, Workers: runtime.NumCPU(), Ctx: ctx, Run: run}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := runExhibit(e, cfg.seed, sc); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// setupCoordinator turns this invocation into a distributed-run
// coordinator when -distributed or -workers-remote asked for one.
// Returns cleanup (never nil) to defer, and coord == nil when the run
// is not distributed.
func setupCoordinator(cfg config, journal *fleet.Journal, resuming bool) (coord *dist.Coordinator, cleanup func(), code int) {
	cleanup = func() {}
	if cfg.distributed == 0 && cfg.workersRemote == "" {
		return nil, cleanup, 0
	}
	if cfg.distributed > 0 && cfg.workersRemote != "" {
		return nil, cleanup, fail(2, "-distributed and -workers-remote are mutually exclusive")
	}
	if cfg.distributed < 0 {
		return nil, cleanup, fail(2, "-distributed must be ≥ 1")
	}
	if cfg.benchjson {
		return nil, cleanup, fail(2, "distributed mode does not apply to -benchjson runs")
	}
	if journal == nil {
		return nil, cleanup, fail(2, "-distributed/-workers-remote require -journal or -resume")
	}
	if resuming && cfg.distributed > 0 {
		// Workers that never come back still contribute everything they
		// made durable before the crash.
		if _, err := dist.MergeWorkerJournals(journal, distLogf); err != nil {
			return nil, cleanup, fail(1, "%v", err)
		}
	}
	coord, forked, err := dist.LaunchCoordinator(journal, cfg.workersRemote, cfg.distributed,
		dist.Options{SpeculateAfter: cfg.speculate, Key: dist.ResolveKey(cfg.clusterKey), Logf: distLogf},
		func(i int) []string {
			args := []string{"-serve-worker", "127.0.0.1:0", "-worker-journal", dist.WorkerJournalPath(journal.Path(), i)}
			if cfg.cpuprofile != "" {
				// The workers do most of a distributed run's computing;
				// each profiles itself next to the coordinator's file.
				args = append(args, "-cpuprofile", fmt.Sprintf("%s.w%d", cfg.cpuprofile, i))
			}
			return args
		})
	if err != nil {
		return nil, cleanup, fail(1, "%v", err)
	}
	cleanup = func() {
		// The fault-diagnostics line: how rough the control plane was.
		// All zeros on a clean run, and the first thing to read when a
		// flaky fleet was slower than it should have been.
		distLogf("dist: %s", coord.Metrics())
		coord.Close()
		if forked != nil {
			forked.Stop()
		}
	}
	return coord, cleanup, 0
}
