package fleet

import (
	"errors"
	"math"
	"testing"
	"time"
)

// Property sweep over the backoff schedule: for a grid of policies and
// attempt numbers, BackoffAt must be monotone non-decreasing, bounded
// by the cap, zero only where documented, and overflow-safe.
func TestBackoffAtProperties(t *testing.T) {
	policies := []Retry{
		{},
		{Backoff: time.Millisecond},
		{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond},
		{Backoff: time.Second},
		{Backoff: time.Second, MaxBackoff: 3 * time.Second},
		{Backoff: 5 * time.Second, MaxBackoff: time.Second}, // base above cap
		{Backoff: math.MaxInt64 / 2},                        // overflow bait
		{Backoff: time.Nanosecond, MaxBackoff: math.MaxInt64},
	}
	for pi, r := range policies {
		prev := time.Duration(-1)
		for attempt := 0; attempt <= 70; attempt++ { // past 63 doublings
			d := r.BackoffAt(attempt)
			if d < 0 {
				t.Fatalf("policy %d attempt %d: negative backoff %v", pi, attempt, d)
			}
			if attempt < 1 && d != 0 {
				t.Fatalf("policy %d: attempt %d (no retry yet) sleeps %v", pi, attempt, d)
			}
			if r.Backoff <= 0 && d != 0 {
				t.Fatalf("policy %d: zero base but attempt %d sleeps %v", pi, attempt, d)
			}
			if d > r.cap() {
				t.Fatalf("policy %d attempt %d: %v exceeds cap %v", pi, attempt, d, r.cap())
			}
			if attempt >= 1 {
				if d < prev {
					t.Fatalf("policy %d: schedule not monotone: attempt %d %v < attempt %d %v",
						pi, attempt, d, attempt-1, prev)
				}
				prev = d
			}
		}
		// Purity: same inputs, same schedule.
		if r.BackoffAt(5) != r.BackoffAt(5) {
			t.Fatalf("policy %d: BackoffAt not pure", pi)
		}
	}
}

func TestBackoffAtSchedule(t *testing.T) {
	r := Retry{Backoff: 10 * time.Millisecond, MaxBackoff: 45 * time.Millisecond}
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 45 * time.Millisecond, 45 * time.Millisecond}
	for attempt, w := range want {
		if got := r.BackoffAt(attempt); got != w {
			t.Fatalf("BackoffAt(%d) = %v, want %v", attempt, got, w)
		}
	}
	// Default cap applies when MaxBackoff is unset.
	if got := (Retry{Backoff: time.Second}).BackoffAt(30); got != DefaultMaxBackoff {
		t.Fatalf("uncapped schedule reached %v, want DefaultMaxBackoff", got)
	}
}

// The injected sleeper observes exactly the documented schedule: one
// sleep per retry, none before first attempts, none for deterministic
// failures.
func TestMapRetrySleepInjection(t *testing.T) {
	var slept []time.Duration
	r := Retry{
		Attempts: 4,
		Backoff:  8 * time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	}
	_, err := MapOpts(Options{Workers: 1, Retry: r}, 1, func(i, attempt int) (int, error) {
		return 0, Retryable(errors.New("always down"))
	})
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	want := []time.Duration{r.BackoffAt(1), r.BackoffAt(2), r.BackoffAt(3)}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full: %v)", i, slept[i], want[i], slept)
		}
	}
}

// Deterministic failures are never retried, so they never sleep — a
// sweep of crashed universes must not serialize behind a backoff
// schedule it cannot benefit from.
func TestMapRetryNoSleepOnDeterministicFailure(t *testing.T) {
	var slept []time.Duration
	r := Retry{Attempts: 5, Backoff: time.Hour, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	attempts := 0
	_, err := MapOpts(Options{Workers: 1, Retry: r}, 2, func(i, attempt int) (int, error) {
		attempts++
		if i == 0 {
			return 0, errors.New("deterministic")
		}
		panic("deterministic crash")
	})
	if err == nil {
		t.Fatal("want errors")
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2 (one per job, no retries)", attempts)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v on deterministic failures", slept)
	}
}

// Zero Backoff retries immediately: the retry loop must not call the
// sleeper at all.
func TestMapRetryZeroBackoffNeverSleeps(t *testing.T) {
	var slept int
	r := Retry{Attempts: 3, Sleep: func(time.Duration) { slept++ }}
	out, err := MapOpts(Options{Workers: 1, Retry: r}, 1, func(i, attempt int) (int, error) {
		if attempt < 2 {
			return 0, Retryable(errors.New("flaky"))
		}
		return 99, nil
	})
	if err != nil || out[0] != 99 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if slept != 0 {
		t.Fatalf("zero-backoff policy slept %d times", slept)
	}
}
