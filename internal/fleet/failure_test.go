package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
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

// Every job runs exactly once, as attempt 0, however it ends: re-running
// a deterministic cell cannot change its outcome, so a failure or a
// panic is recorded on the spot.
func TestMapRunsEachCellOnce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		seen := make([][]int, 3)
		_, err := MapOpts(Options{Workers: workers}, 3, func(i, attempt int) (int, error) {
			mu.Lock()
			seen[i] = append(seen[i], attempt)
			mu.Unlock()
			switch i {
			case 0:
				return 0, errors.New("deterministic")
			case 1:
				panic("deterministic crash")
			}
			return i, nil
		})
		for i, attempts := range seen {
			if !equalInts(attempts, []int{0}) {
				t.Fatalf("workers=%d: job %d ran as attempts %v, want exactly [0]", workers, i, attempts)
			}
		}
		if jes := JobErrors(err); len(jes) != 2 || jes[1].Class() != ClassPanicked {
			t.Fatalf("workers=%d: want jobs 0 and 1 failed (1 panicked), got %v", workers, err)
		}
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
