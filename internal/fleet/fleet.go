// Package fleet is the parallel sweep-execution engine: it fans
// independent simulation universes out across a bounded pool of
// goroutines and merges their results back in submission order, so a
// parallel sweep's output is bit-identical to a serial run of the same
// jobs.
//
// The determinism contract (DESIGN.md §5 "Parallel execution"):
//
//   - every job runs entirely on one goroutine — a simulation universe
//     is never split across workers;
//   - jobs share no mutable state — each owns its scheduler, RNG and
//     network for the duration of the cell and derives them from its
//     inputs (seeds derived up front, e.g. via sim.ChildSeed, never
//     from a generator shared between jobs); a job may recycle a
//     universe an earlier job is done with, reset to the state a fresh
//     one has (experiment.TestRecycledPathSimMatchesFresh);
//   - results land at their job's index, so the merged slice is
//     independent of completion order and of the worker count.
//
// A job that panics does not kill the sweep: the panic is captured and
// converted into a labelled *JobError while the remaining jobs run to
// completion.
//
// On top of execution the engine carries the crash-safety layer
// (DESIGN.md §9 "Crash-safe runs and resume"): when a *Run with an
// attached *Journal rides along in Options, every finished cell is
// appended to a write-ahead journal and every appended cell is durable
// before the sweep returns, and a resumed run replays journaled cells
// instead of re-executing them —
// which, combined with per-cell seeding, makes a killed-and-resumed
// sweep bit-identical to an uninterrupted one. Cancelling the context
// in Options drains the sweep gracefully: in-flight cells finish and
// are journaled, undispatched cells come back as JobErrors wrapping
// ctx.Err().
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// JobError labels one failed job of a sweep: which index crashed, the
// human-readable label the caller attached to it, and the underlying
// error (for a captured panic, the panic value plus its stack).
type JobError struct {
	Index int
	Label string
	Err   error
}

// Error renders "job 16 (6 pair=2 scheme=TCP): <cause>".
func (e *JobError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("fleet: job %d (%s): %v", e.Index, e.Label, e.Err)
	}
	return fmt.Sprintf("fleet: job %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Class returns the failure class of the underlying cause — see
// Classify and the Class* constants.
func (e *JobError) Class() string { return Classify(e.Err) }

// Workers normalizes a requested worker count: values ≤ 0 select one
// worker per available CPU (GOMAXPROCS); 1 forces the serial path.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run couples the cross-sweep state of one logical run: the optional
// write-ahead journal and the optional remote-execution hook. Sweep IDs
// are assigned in Map-call order, which is deterministic because a
// run's sweeps are launched sequentially (each Map call returns before
// the next starts), so the same program with the same inputs numbers
// its sweeps identically on every execution — the property journal
// replay, workers and cell repro all key on.
type Run struct {
	Journal *Journal

	// Dispatch, when non-nil, makes this process the coordinator of a
	// distributed run: cells resolve through the Dispatcher instead of
	// executing locally (DESIGN.md §12). Mutually exclusive with Serve.
	Dispatch Dispatcher
	// Serve, when non-nil, makes this process a worker (or a repro):
	// every sweep is offered to the SweepServer and the local result
	// slice stays at zero values. Mutually exclusive with Dispatch.
	Serve SweepServer

	sweep atomic.Uint32
}

// nextSweep assigns the next sweep ID of this run.
func (r *Run) nextSweep() uint32 {
	return r.sweep.Add(1) - 1
}

// Options configures one Map call beyond its job function.
type Options struct {
	// Ctx, when non-nil, cancels dispatch: after Ctx is done no new
	// job starts, in-flight jobs finish (and are journaled), and every
	// undispatched job reports a JobError wrapping Ctx.Err(). A nil
	// Ctx never cancels.
	Ctx context.Context
	// Workers is the concurrency bound, normalized by Workers().
	Workers int
	// Label, when non-nil, names job i for error reports and journal
	// failure records.
	Label func(int) string
	// Run, when non-nil, attaches the crash-safety layer (journal
	// write-through/replay) or a remote-execution hook.
	Run *Run
}

// MapOpts runs fn for every index in [0,n) across Workers(o.Workers)
// goroutines and returns the results in index order: out[i] is fn(i)'s
// value no matter which worker ran it or when it finished. On top of
// the bounded fan-out and ordered merge it does panic capture,
// cooperative cancellation and journal write-through/replay. fn receives
// the job index and an attempt number that is always 0: a job runs once
// per process, because running a deterministic cell again cannot change
// its outcome.
//
// Partial-result semantics: a failed sweep is still a valid, labelled
// result, never a truncated one. A job that returns an error or panics
// contributes its ZERO VALUE at its index — the returned slice always
// has length n and every successful index holds its real result — and
// the joined error carries one *JobError per failure (recover them
// individually with JobErrors, or match through the join with
// errors.Is/As). The remaining jobs always run to completion; nothing
// is cancelled except by o.Ctx. Callers that tolerate partial results
// therefore index the slice by the failed jobs' indices (via
// JobErrors) and use everything else.
func MapOpts[T any](o Options, n int, fn func(i, attempt int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return out, nil
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	job := newCellRunner(o, n, fn)

	if r := o.Run; r != nil && r.Serve != nil {
		// Worker side of a distributed run, or a repro: register the
		// sweep's cells with the server and return zero values — only the
		// coordinator assembles real results. A serve failure (session
		// torn down) labels every cell so the surrounding sweep fails
		// loudly instead of rendering a silently empty exhibit.
		if r.Dispatch != nil {
			panic(errServeOnly)
		}
		if err := r.Serve.ServeSweep(job.sweep, n, job.serveCell); err != nil {
			for i := 0; i < n; i++ {
				errs[i] = &JobError{Index: i, Label: job.label(i), Err: err}
			}
		}
		return out, job.sweepDone(errs)
	}

	w := Workers(o.Workers)
	if w > n {
		w = n
	}

	// next hands out job indices; results go straight to their slot, so
	// no ordering coordination is needed beyond the WaitGroup. Once the
	// context is done no further index is claimed.
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			out[i], errs[i] = job.run(i)
		}
	}
	if w == 1 {
		// The serial reference: the caller's goroutine, index order.
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		// The unclaimed tail never ran.
		for i := int(next.Load()); i < n; i++ {
			errs[i] = &JobError{Index: i, Label: job.label(i), Err: err}
		}
	}
	return out, job.sweepDone(errs)
}

// cellRunner executes one cell end to end: journal replay, dispatch,
// panic capture, and journal write-through.
type cellRunner[T any] struct {
	o     Options
	fn    func(i, attempt int) (T, error)
	sweep uint32 // this Map call's sweep ID within o.Run
	// local bounds the cells a dispatching Map executes itself once
	// dispatch fails; nil without a dispatcher.
	local chan struct{}
}

func newCellRunner[T any](o Options, n int, fn func(i, attempt int) (T, error)) *cellRunner[T] {
	c := &cellRunner[T]{o: o, fn: fn}
	if r := o.Run; r != nil {
		c.sweep = r.nextSweep()
		if r.Journal != nil {
			r.Journal.beginSweep(c.sweep, n)
		}
		if r.Dispatch != nil {
			c.local = make(chan struct{}, runtime.GOMAXPROCS(0))
		}
	}
	return c
}

// sweepDone is the one exit of every MapOpts that ran a sweep. It waits
// for the journal's barrier: every cell this sweep appended is durable,
// or the journal's error joins the cells' as a sweep error.
func (c *cellRunner[T]) sweepDone(errs []error) error {
	if r := c.o.Run; r != nil && r.Journal != nil {
		if err := r.Journal.barrier(); err != nil {
			errs = append(errs, fmt.Errorf("journal %s: sweep %d is not durable: %w", r.Journal.Path(), c.sweep, err))
		}
	}
	return errors.Join(errs...)
}

func (c *cellRunner[T]) label(i int) string {
	if c.o.Label == nil {
		return ""
	}
	return c.o.Label(i)
}

// run executes job i and wraps any failure in a labelled *JobError.
func (c *cellRunner[T]) run(i int) (T, error) {
	out, err := c.resolve(i)
	if err != nil {
		err = &JobError{Index: i, Label: c.label(i), Err: err}
	}
	return out, err
}

// resolve handles replay and dispatch, then executes the cell with
// journal write-through of its outcome.
func (c *cellRunner[T]) resolve(i int) (out T, err error) {
	var (
		j *Journal
		d Dispatcher
	)
	if r := c.o.Run; r != nil {
		j, d = r.Journal, r.Dispatch
	}
	if j != nil {
		if data, ok := j.lookupCell(c.sweep, uint32(i)); ok {
			if derr := decodeCell(data, &out); derr != nil {
				var zero T
				return zero, fmt.Errorf("journal replay of sweep %d cell %d: %w", c.sweep, i, derr)
			}
			return out, nil
		}
	}

	if d != nil {
		if res, derr := d.DispatchCell(c.sweep, uint32(i), c.label(i)); derr == nil {
			if res.Failed {
				rerr := outcomeFailure(res)
				if j != nil {
					j.appendFailure(c.sweep, uint32(i), c.label(i), Classify(rerr), rerr.Error())
				}
				var zero T
				return zero, rerr
			}
			if derr := decodeCell(res.Data, &out); derr != nil {
				var zero T
				return zero, fmt.Errorf("remote result of sweep %d cell %d: %w", c.sweep, i, derr)
			}
			if j != nil {
				if werr := j.AppendCellData(c.sweep, uint32(i), res.Data); werr != nil {
					var zero T
					return zero, fmt.Errorf("journal append for sweep %d cell %d: %w", c.sweep, i, werr)
				}
			}
			return out, nil
		}
		// Dispatch infrastructure failed (every worker dead): execute the
		// cell here instead — the result is the same bytes, because cells
		// derive everything from their own seed — but no more of them at
		// once than there are CPUs, however many goroutines the dispatch
		// window runs. Unless the sweep was cancelled meanwhile: a cell
		// that started nowhere (the dispatcher is draining) does not
		// start now.
		c.local <- struct{}{}
		defer func() { <-c.local }()
		if ctx := c.o.Ctx; ctx != nil && ctx.Err() != nil {
			var zero T
			return zero, ctx.Err()
		}
	}

	out, err = c.exec(i)
	if j != nil {
		if err != nil {
			j.appendFailure(c.sweep, uint32(i), c.label(i), Classify(err), err.Error())
		} else if werr := j.appendCell(c.sweep, uint32(i), &out); werr != nil {
			// A cell that cannot be journaled poisons resume; surface it
			// rather than silently producing an incomplete journal.
			var zero T
			return zero, fmt.Errorf("journal append for sweep %d cell %d: %w", c.sweep, i, werr)
		}
	}
	return out, err
}

// serveCell executes one cell on behalf of a coordinator (the worker
// side of a distributed run) and returns its outcome in wire form. The
// coordinator's journal is the cell's one durable record, so nothing is
// replayed or journaled here: a cell lost in flight re-executes, to the
// same bytes. It never panics — a broken cell becomes a failure outcome
// like any other.
func (c *cellRunner[T]) serveCell(cell uint32) (res *CellOutcome) {
	i := int(cell)
	defer func() {
		if r := recover(); r != nil {
			res = failureOutcome(capturePanic(r))
		}
	}()
	out, err := c.exec(i)
	if err != nil {
		return failureOutcome(err)
	}
	data, err := encodeCellData(&out)
	if err != nil {
		return failureOutcome(fmt.Errorf("encode cell result: %w", err))
	}
	return &CellOutcome{Data: data}
}

// exec runs the job function once with panic capture, so a captured
// panic can be journaled and reported like any failure.
func (c *cellRunner[T]) exec(i int) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out = zero
			err = capturePanic(r)
		}
	}()
	return c.fn(i, 0)
}

// capturePanic freezes a recovered panic as a structured *PanicError
// with the stack of the panicking goroutine.
func capturePanic(r any) error {
	return &PanicError{Value: r, Stack: debug.Stack()}
}
