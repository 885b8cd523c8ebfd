package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Failure classes: the taxonomy sweep supervisors report and degraded
// exhibit output renders. Classification is structural (errors.As over
// the whole wrapped chain), so a class survives any amount of
// fmt.Errorf("%w") and JobError wrapping.
//
// The classes deliberately mirror the ways a simulation universe can
// fail:
//
//	panicked — the job's code crashed (captured panic + stack);
//	stalled  — the run burned its budget or made no progress
//	           (sim.StallError / sim.BudgetError);
//	aborted  — the flow lifecycle gave up in a controlled way
//	           (transport.AbortError);
//	canceled — the cell never ran because the sweep's context was
//	           cancelled (graceful drain, not a cell defect);
//	error    — anything else.
const (
	ClassPanicked = "panicked"
	ClassStalled  = "stalled"
	ClassAborted  = "aborted"
	ClassCanceled = "canceled"
	ClassError    = "error"
)

// classifier is the marker interface the sim and transport packages
// implement (without fleet importing either): an error that knows its
// own failure class.
type classifier interface{ FailureClass() string }

// Classify maps an error to its failure class, or "" for nil.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return ClassPanicked
	}
	var c classifier
	if errors.As(err, &c) {
		return c.FailureClass()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	return ClassError
}

// Interrupted reports whether the joined error of a Map call contains
// at least one cell that was skipped because the sweep's context was
// cancelled — the signature of a graceful drain, as opposed to cells
// that genuinely failed.
func Interrupted(err error) bool {
	for _, je := range JobErrors(err) {
		if je.Class() == ClassCanceled {
			return true
		}
	}
	return false
}

// PanicError is a captured job panic: the recovered value plus the
// goroutine stack at the point of recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders "panic: <value>" followed by the captured stack, the
// historical format of fleet panic reports.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// FailureClass marks captured panics for Classify.
func (e *PanicError) FailureClass() string { return ClassPanicked }

// retryable wraps an error a caller has judged transient — worth
// re-running the job for. Deterministic simulation failures (a stall,
// an abort, a panic) are never transient: the same seed reproduces
// them, so a Retry policy does not retry them unless explicitly
// wrapped.
type retryable struct{ err error }

func (e *retryable) Error() string { return e.err.Error() }
func (e *retryable) Unwrap() error { return e.err }

// Retryable marks err as transient for a Retry policy. Nil stays nil.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryable{err: err}
}

// IsRetryable reports whether err carries the Retryable marker
// anywhere in its chain.
func IsRetryable(err error) bool {
	var r *retryable
	return errors.As(err, &r)
}

// DefaultMaxBackoff caps the exponential retry backoff when Retry does
// not set its own ceiling.
const DefaultMaxBackoff = 30 * time.Second

// Retry configures the per-job retry policy of MapOpts: a job whose
// error IsRetryable is re-run (with capped exponential backoff, see
// BackoffAt) up to Attempts times before its failure is recorded.
// Determinism of the merged output is unaffected because retries happen
// inside the job's index slot. Non-retryable failures — including
// captured panics — fail immediately: re-running a deterministic
// universe cannot change its outcome.
type Retry struct {
	// Attempts is the total number of tries per job, including the
	// first; values below 1 mean 1 (no retry).
	Attempts int
	// Backoff is the sleep before the second attempt; it doubles for
	// each further attempt up to MaxBackoff. Zero disables sleeping
	// (retry immediately), which is right for CPU-bound simulation
	// jobs and keeps tests fast.
	Backoff time.Duration
	// MaxBackoff caps the exponential schedule; zero means
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Sleep, when non-nil, replaces time.Sleep — tests inject a
	// recorder here and assert the schedule without wall-clock waits.
	Sleep func(time.Duration)
}

func (r Retry) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

func (r Retry) cap() time.Duration {
	if r.MaxBackoff <= 0 {
		return DefaultMaxBackoff
	}
	return r.MaxBackoff
}

// BackoffAt returns the sleep scheduled before attempt number attempt
// (1-based count of retries: attempt 1 is the first re-run). The
// schedule is pure and overflow-safe: Backoff doubles per retry and
// saturates at the cap, so it is monotone non-decreasing and bounded
// for every attempt number.
func (r Retry) BackoffAt(attempt int) time.Duration {
	if attempt < 1 || r.Backoff <= 0 {
		return 0
	}
	d, max := r.Backoff, r.cap()
	if d > max {
		return max
	}
	for k := 1; k < attempt; k++ {
		d *= 2
		if d >= max || d < 0 { // saturate, guard overflow
			return max
		}
	}
	return d
}

func (r Retry) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// JobErrors unpacks the joined error returned by MapOpts into its
// individual *JobError entries, in job-index order. It returns nil for
// a nil error, and tolerates arbitrary extra wrapping around the join.
func JobErrors(err error) []*JobError {
	if err == nil {
		return nil
	}
	var out []*JobError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if je, ok := e.(*JobError); ok {
			out = append(out, je)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}
