// Distributed sweep modes (DESIGN.md §12), mirroring halfback-sim:
//
//	fctsweep -serve-worker :9001 -worker-journal w0.journal
//	fctsweep -schemes Halfback -journal run.journal -workers-remote h1:9001,h2:9001
//	fctsweep -schemes Halfback -journal run.journal -distributed 3
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
)

// distLogf is the stderr diagnostic sink for dist machinery — workers
// must keep stdout clean (the address line is parsed off it).
func distLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fctsweep: "+format+"\n", args...)
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
		Start:       sweepStart,
		Logf:        distLogf,
	})
}

// sweepStart runs the journal-described sweep on a worker: the same
// single Map call as run(), minus all rendering, with the attached
// SweepServer executing exactly the cells the coordinator pushes.
func sweepStart(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error {
	if meta.Tool != "fctsweep" {
		return fmt.Errorf("journal written by %q, not fctsweep", meta.Tool)
	}
	var cfg config
	if err := flagSet(&cfg).Parse(meta.Args); err != nil {
		return fmt.Errorf("journal meta args unparseable: %w", err)
	}
	sw, err := newSweep(cfg)
	if err != nil {
		return err
	}
	if _, err := sw.mapCells(ctx, runtime.NumCPU(), run); err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	// Cell failures are journaled outcomes the coordinator reports; the
	// worker's program itself completed.
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
