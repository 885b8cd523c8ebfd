package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestClassifyCanceled(t *testing.T) {
	for _, err := range []error{
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("dispatch: %w", context.Canceled),
		&JobError{Index: 3, Err: context.Canceled},
	} {
		if got := Classify(err); got != ClassCanceled {
			t.Errorf("Classify(%v) = %q, want %q", err, got, ClassCanceled)
		}
	}
}

// A context canceled before Map starts yields n labelled canceled
// JobErrors and zero executions, on both paths.
func TestMapCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		var ran atomic.Int32
		label := func(i int) string { return fmt.Sprintf("cell-%d", i) }
		out, err := MapOpts(Options{Ctx: ctx, Workers: w, Label: label}, 6,
			func(i, _ int) (int, error) { ran.Add(1); return i, nil })
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d cells ran under a dead context", w, ran.Load())
		}
		if len(out) != 6 {
			t.Fatalf("workers=%d: result slice truncated to %d", w, len(out))
		}
		jes := JobErrors(err)
		if len(jes) != 6 {
			t.Fatalf("workers=%d: %d JobErrors, want 6: %v", w, len(jes), err)
		}
		for _, je := range jes {
			if !errors.Is(je, context.Canceled) || je.Class() != ClassCanceled {
				t.Fatalf("workers=%d: job %d error %v not canceled-classed", w, je.Index, je)
			}
		}
		if jes[2].Label != "cell-2" {
			t.Fatalf("workers=%d: canceled jobs lost their labels: %q", w, jes[2].Label)
		}
	}
}

// Cancelling mid-sweep drains: in-flight cells finish and keep their
// results, undispatched cells come back canceled, and the two groups
// partition the index space.
func TestMapCancelMidSweepDrains(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	out, err := MapOpts(Options{Ctx: ctx, Workers: 4}, n, func(i, _ int) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return i + 1000, nil // every executed cell succeeds
	})
	if err == nil {
		t.Fatal("drained run reported no error")
	}
	executed := int(ran.Load())
	if executed < 10 || executed >= n {
		t.Fatalf("%d cells executed, want partial drain", executed)
	}
	canceled := 0
	for _, je := range JobErrors(err) {
		if je.Class() != ClassCanceled {
			t.Fatalf("job %d failed with %q, want only canceled errors", je.Index, je.Class())
		}
		if out[je.Index] != 0 {
			t.Fatalf("canceled job %d has non-zero result %d", je.Index, out[je.Index])
		}
		canceled++
	}
	if executed+canceled != n {
		t.Fatalf("executed %d + canceled %d != %d", executed, canceled, n)
	}
	seen := make(map[int]bool)
	for _, je := range JobErrors(err) {
		seen[je.Index] = true
	}
	for i, v := range out {
		if !seen[i] && v != i+1000 {
			t.Fatalf("in-flight cell %d lost its result: %d", i, v)
		}
	}
}
