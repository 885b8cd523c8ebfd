package fleet

import (
	"context"
	"errors"
	"fmt"
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
