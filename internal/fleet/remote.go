package fleet

import "fmt"

// Remote execution hooks (DESIGN.md §12 "Distributed sweeps").
//
// The fleet engine can hand cell execution to another process instead
// of running it on a local goroutine. Two complementary hooks on Run
// make one sweep's cells flow between a coordinator and its workers:
//
//   - Dispatch (coordinator side): MapOpts still owns ordering, journal
//     replay and the merged result slice, but instead of calling the
//     cell function it asks the Dispatcher for the cell's outcome — the
//     payload a worker produced, or its recorded failure. The
//     payload is decoded exactly like a journal replay, and written
//     through to the canonical journal, so a dispatched cell is
//     indistinguishable from a locally executed one.
//
//   - Serve (worker side): MapOpts registers the sweep — its size and a
//     closure that runs one cell with panic capture and encodes its
//     outcome — with the SweepServer and returns at once, so a worker's
//     program runs ahead and offers every sweep of its run. The worker
//     journals nothing and its own result slice stays at zero values;
//     only the coordinator journals and renders. A repro is the same
//     hook with one cell to run.
//
// Both sides run the same deterministic program (same tool, args and
// seed), so they agree on sweep numbering and cell counts without any
// negotiation, and a cell's bytes are identical wherever it executes —
// the property that makes reassignment safe.

// CellOutcome is one cell's terminal result as it crosses the wire: the
// payload of a success, or the failure triple a journal failure record
// carries.
type CellOutcome struct {
	// Data is the cell value's payload (codec.go); nil for a failure.
	Data []byte
	// Failed marks a cell whose final attempt errored.
	Failed bool
	// Class and Error describe the failure (Class is a Class* constant).
	Class string
	Error string
}

// Dispatcher is the coordinator-side hook: it owns a pool of workers
// and resolves one cell at a time. Implementations must be safe for
// concurrent use — MapOpts calls DispatchCell from every fleet
// goroutine at once.
type Dispatcher interface {
	// DispatchCell resolves one cell remotely. A non-nil error reports
	// infrastructure failure (every worker dead, protocol breakdown) —
	// the engine then falls back to executing the cell locally, which
	// yields the identical result because cells are seed-determined.
	DispatchCell(sweep, cell uint32, label string) (*CellOutcome, error)
}

// SweepServer is the worker-side hook: ServeSweep offers a sweep's
// cells for remote execution. run executes one cell with panic capture
// and returns its wire outcome; it never panics, is safe to call
// concurrently for distinct cells, and stays usable after ServeSweep
// has returned. ServeSweep registers the sweep and returns: nil, and
// the worker's Map call returns zero values, or an error that fails
// every cell of the sweep.
type SweepServer interface {
	ServeSweep(sweep uint32, n int, run func(cell uint32) *CellOutcome) error
}

// RemoteError is a worker-reported cell failure as seen by the
// coordinator: the original failure class crosses the wire so Classify
// (and the FAILED(class) cells degraded exhibits render) behaves
// exactly as if the cell had failed locally.
type RemoteError struct {
	Class string
	Msg   string
}

// Error renders the worker's failure text.
func (e *RemoteError) Error() string { return e.Msg }

// FailureClass preserves the worker-side classification.
func (e *RemoteError) FailureClass() string {
	if e.Class == "" {
		return ClassError
	}
	return e.Class
}

// outcomeFailure converts a failed CellOutcome into its coordinator-side
// error.
func outcomeFailure(res *CellOutcome) error {
	return &RemoteError{Class: res.Class, Msg: res.Error}
}

// failureOutcome freezes a local cell failure into its wire form.
func failureOutcome(err error) *CellOutcome {
	return &CellOutcome{Failed: true, Class: Classify(err), Error: err.Error()}
}

// errServeOnly guards against wiring both hooks into one Run: a process
// is a coordinator or a worker for a given run, never both.
var errServeOnly = fmt.Errorf("fleet: Run has both Dispatch and Serve hooks")
