package sim

import (
	"errors"
	"testing"
)

// A self-rescheduling timer with a frozen progress counter must trip
// the stall detector instead of looping forever.
func TestRunSupervisedDetectsStall(t *testing.T) {
	s := NewScheduler()
	var reschedule EventFunc
	reschedule = func(now Time, _ any) { s.AfterFunc(Second, reschedule, nil) }
	s.AfterFunc(Second, reschedule, nil)

	progress := int64(0)
	err := s.RunSupervised(SuperviseConfig{
		Progress:    func() int64 { return progress },
		StallWindow: 10 * Second,
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %T", err)
	}
	if se.Pending == 0 {
		t.Fatalf("a stalled run should report pending events, got 0")
	}
	if se.At.Sub(se.LastProgress) < 10*Second {
		t.Fatalf("stall reported before the window elapsed: %+v", se)
	}
	if se.FailureClass() != "stalled" {
		t.Fatalf("FailureClass = %q, want stalled", se.FailureClass())
	}
}

// Progress that keeps moving must never be reported as a stall; the
// run ends normally when the queue drains.
func TestRunSupervisedProgressSuppressesStall(t *testing.T) {
	s := NewScheduler()
	progress := int64(0)
	remaining := 100
	var step EventFunc
	step = func(now Time, _ any) {
		progress++
		if remaining--; remaining > 0 {
			s.AfterFunc(Second, step, nil)
		}
	}
	s.AfterFunc(Second, step, nil)
	err := s.RunSupervised(SuperviseConfig{
		Progress:    func() int64 { return progress },
		StallWindow: 2 * Second, // far shorter than the 100 s of activity
	})
	if err != nil {
		t.Fatalf("healthy run reported %v", err)
	}
	if progress != 100 {
		t.Fatalf("ran %d steps, want 100", progress)
	}
}

// The event budget converts a same-instant event storm — invisible to
// the virtual-time stall detector — into a structured error.
func TestRunSupervisedEventBudget(t *testing.T) {
	s := NewScheduler()
	var spin EventFunc
	spin = func(now Time, _ any) { s.AtFunc(now, spin, nil) } // never advances time
	s.AtFunc(0, spin, nil)
	err := s.RunSupervised(SuperviseConfig{EventBudget: 1000})
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("want ErrEventBudget, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T", err)
	}
	if be.Budget != 1000 {
		t.Fatalf("Budget = %d, want 1000", be.Budget)
	}
	if got := s.Processed; got != 1000 {
		t.Fatalf("Processed = %d, want exactly the budget", got)
	}
}

// Reaching the horizon is a normal stop: nil error, clock advanced to
// exactly the horizon, later events still queued.
func TestRunSupervisedHorizon(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.AfterFunc(Second, func(now Time, _ any) { ran++ }, nil)
	s.AfterFunc(10*Second, func(now Time, _ any) { ran++ }, nil)
	err := s.RunSupervised(SuperviseConfig{Horizon: Time(5 * Second)})
	if err != nil {
		t.Fatalf("horizon stop reported %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (the pre-horizon one)", ran)
	}
	if s.Now() != Time(5*Second) {
		t.Fatalf("clock at %v, want exactly the horizon", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("post-horizon event lost: pending=%d", s.Pending())
	}
}

// A drained queue ends a supervised run with nil whatever the bounds.
func TestRunSupervisedDrains(t *testing.T) {
	s := NewScheduler()
	s.AfterFunc(Second, func(now Time, _ any) {}, nil)
	err := s.RunSupervised(SuperviseConfig{
		Horizon:     Time(100 * Second),
		EventBudget: 10,
		StallWindow: Second,
		Progress:    func() int64 { return 0 },
	})
	if err != nil {
		t.Fatalf("drained run reported %v", err)
	}
}
