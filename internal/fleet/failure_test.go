package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

type fakeClassed struct{ class string }

func (e *fakeClassed) Error() string        { return "fake " + e.class }
func (e *fakeClassed) FailureClass() string { return e.class }

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("plain"), ClassError},
		{&PanicError{Value: "boom"}, ClassPanicked},
		{&fakeClassed{class: ClassStalled}, ClassStalled},
		{&fakeClassed{class: ClassAborted}, ClassAborted},
		// Classification must survive wrapping, including *JobError.
		{fmt.Errorf("cell 3: %w", &fakeClassed{class: ClassStalled}), ClassStalled},
		{&JobError{Index: 1, Err: &fakeClassed{class: ClassAborted}}, ClassAborted},
		{&JobError{Index: 1, Err: &PanicError{Value: 42}}, ClassPanicked},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// Partial-result semantics (the documented contract of MapOpts):
// failed jobs leave zero values at their indices, every successful
// index is still usable, and the joined error carries one *JobError
// per failure.
func TestMapPartialResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := MapOpts(Options{Workers: workers, Label: func(i int) string {
			return fmt.Sprintf("job-%d", i)
		}}, 10, func(i, _ int) (int, error) {
			switch {
			case i == 3:
				return 0, errors.New("deterministic failure")
			case i == 7:
				panic("deterministic panic")
			}
			return i * 100, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want joined error", workers)
		}
		for i, v := range out {
			want := i * 100
			if i == 3 || i == 7 {
				want = 0 // zero value at failed indices
			}
			if v != want {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, want)
			}
		}
		jes := JobErrors(err)
		if len(jes) != 2 {
			t.Fatalf("workers=%d: %d JobErrors, want 2: %v", workers, len(jes), err)
		}
		if jes[0].Index != 3 || jes[1].Index != 7 {
			t.Fatalf("workers=%d: failed indices %d,%d want 3,7", workers, jes[0].Index, jes[1].Index)
		}
		if jes[0].Label != "job-3" {
			t.Errorf("workers=%d: label %q, want job-3", workers, jes[0].Label)
		}
		if jes[0].Class() != ClassError || jes[1].Class() != ClassPanicked {
			t.Errorf("workers=%d: classes %q,%q want error,panicked",
				workers, jes[0].Class(), jes[1].Class())
		}
		if !strings.Contains(jes[1].Err.Error(), "deterministic panic") {
			t.Errorf("workers=%d: panic message lost: %v", workers, jes[1].Err)
		}
	}
}

func TestJobErrorsNilAndWrapped(t *testing.T) {
	if JobErrors(nil) != nil {
		t.Fatal("JobErrors(nil) != nil")
	}
	je := &JobError{Index: 5, Err: errors.New("x")}
	wrapped := fmt.Errorf("sweep failed: %w", errors.Join(nil, je))
	got := JobErrors(wrapped)
	if len(got) != 1 || got[0] != je {
		t.Fatalf("JobErrors through extra wrapping = %v, want the one JobError", got)
	}
}

func TestRetryableMarker(t *testing.T) {
	base := errors.New("transient IO")
	if IsRetryable(base) {
		t.Fatal("unmarked error classed retryable")
	}
	r := Retryable(base)
	if !IsRetryable(r) {
		t.Fatal("marked error not retryable")
	}
	if !IsRetryable(fmt.Errorf("wrapped: %w", r)) {
		t.Fatal("marker lost through wrapping")
	}
	if !errors.Is(r, base) {
		t.Fatal("Retryable hides the cause from errors.Is")
	}
	if Retryable(nil) != nil {
		t.Fatal("Retryable(nil) != nil")
	}
}

// A Retry policy re-runs only retryable failures, and only up to the attempt
// budget; deterministic failures and panics fail on the spot.
func TestMapRetry(t *testing.T) {
	attemptsSeen := make([][]int, 4)
	out, err := MapOpts(Options{Workers: 1, Retry: Retry{Attempts: 3}}, 4, func(i, attempt int) (int, error) {
		attemptsSeen[i] = append(attemptsSeen[i], attempt)
		switch i {
		case 0: // succeeds immediately
			return 10, nil
		case 1: // transient: fails twice, then succeeds
			if attempt < 2 {
				return 0, Retryable(errors.New("flaky"))
			}
			return 11, nil
		case 2: // deterministic: never retried
			return 0, errors.New("hard failure")
		default: // retryable but never recovers: exhausts the budget
			return 0, Retryable(errors.New("always down"))
		}
	})
	if want := []int{10, 11, 0, 0}; !equalInts(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	if len(attemptsSeen[0]) != 1 || len(attemptsSeen[1]) != 3 ||
		len(attemptsSeen[2]) != 1 || len(attemptsSeen[3]) != 3 {
		t.Fatalf("attempt counts %v, want [1 3 1 3] pattern",
			[]int{len(attemptsSeen[0]), len(attemptsSeen[1]), len(attemptsSeen[2]), len(attemptsSeen[3])})
	}
	jes := JobErrors(err)
	if len(jes) != 2 {
		t.Fatalf("%d JobErrors, want 2 (jobs 2 and 3): %v", len(jes), err)
	}
	if jes[0].Index != 2 || jes[1].Index != 3 {
		t.Fatalf("failed indices %d,%d want 2,3", jes[0].Index, jes[1].Index)
	}
}

// A panic on a retry attempt is captured like any other panic.
func TestMapRetryPanicOnRetry(t *testing.T) {
	_, err := MapOpts(Options{Workers: 1, Retry: Retry{Attempts: 2}}, 1, func(i, attempt int) (int, error) {
		if attempt == 0 {
			return 0, Retryable(errors.New("transient"))
		}
		panic("second attempt crashed")
	})
	jes := JobErrors(err)
	if len(jes) != 1 || jes[0].Class() != ClassPanicked {
		t.Fatalf("want one panicked JobError, got %v", err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
