package sim

import (
	"math"
	"testing"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.AtFunc(30, func(Time, any) { order = append(order, 3) }, nil)
	s.AtFunc(10, func(Time, any) { order = append(order, 1) }, nil)
	s.AtFunc(20, func(Time, any) { order = append(order, 2) }, nil)
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock should rest at 30, got %v", s.Now())
	}
}

func TestSchedulerStableTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.AtFunc(5, func(Time, any) { order = append(order, i) }, nil)
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must run in scheduling order; got %v at %d", v, i)
		}
	}
}

func TestSchedulerAfterAndClock(t *testing.T) {
	s := NewScheduler()
	var fired Time
	s.AfterFunc(100*Millisecond, func(now Time, _ any) {
		fired = now
		s.AfterFunc(50*Millisecond, func(now Time, _ any) { fired = now }, nil)
	}, nil)
	s.Run()
	want := Time(150 * Millisecond)
	if fired != want {
		t.Fatalf("nested After: got %v want %v", fired, want)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.AtFunc(10, func(Time, any) {}, nil)
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.AtFunc(5, func(Time, any) {}, nil)
}

func TestSchedulerNilEventPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event must panic")
		}
	}()
	s.AtFunc(5, nil, nil)
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	ran := false
	timer := s.AtFunc(10, func(Time, any) { ran = true }, nil)
	if !timer.Pending() {
		t.Fatal("timer should be pending")
	}
	if !timer.Stop() {
		t.Fatal("first Stop should report true")
	}
	if timer.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
	if timer.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	timer := s.AtFunc(10, func(Time, any) {}, nil)
	s.Run()
	if timer.Stop() {
		t.Fatal("Stop after firing should report false")
	}
	if timer.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.AtFunc(at, func(now Time, _ any) { fired = append(fired, now) }, nil)
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("expected 2 events before deadline, got %d", len(fired))
	}
	if s.Now() != 25 {
		t.Fatalf("clock must advance to the deadline, got %v", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("remaining events must run on the next window, got %d", len(fired))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.AtFunc(25, func(Time, any) { ran = true }, nil)
	s.RunUntil(25)
	if !ran {
		t.Fatal("event exactly at the deadline must run")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.AtFunc(Time(i), func(Time, any) {
			count++
			if count == 3 {
				s.Stop()
			}
		}, nil)
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop should halt the loop at 3, got %d", count)
	}
	s.Run() // resumes
	if count != 10 {
		t.Fatalf("Run should resume the rest, got %d", count)
	}
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler()
	a := s.AtFunc(10, func(Time, any) {}, nil)
	s.AtFunc(20, func(Time, any) {}, nil)
	if s.Pending() != 2 {
		t.Fatalf("want 2 pending, got %d", s.Pending())
	}
	a.Stop()
	if s.Pending() != 1 {
		t.Fatalf("want 1 pending after stop, got %d", s.Pending())
	}
}

func TestMaxEventsBackstop(t *testing.T) {
	s := NewScheduler()
	s.MaxEvents = 10
	var loop EventFunc
	loop = func(now Time, _ any) { s.AfterFunc(1, loop, nil) }
	s.AfterFunc(1, loop, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop must trip MaxEvents")
		}
	}()
	s.Run()
}

func TestEventsScheduledDuringEventRun(t *testing.T) {
	// An event scheduled for the *same* instant from within an event
	// must still run (common for zero-delay sends).
	s := NewScheduler()
	ran := false
	s.AtFunc(10, func(now Time, _ any) {
		s.AtFunc(now, func(Time, any) { ran = true }, nil)
	}, nil)
	s.Run()
	if !ran {
		t.Fatal("same-instant event scheduled during execution did not run")
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(1 * Second)
	if got := base.Add(500 * Millisecond); got != Time(1500*Millisecond) {
		t.Fatalf("Add: %v", got)
	}
	if d := base.Sub(Time(250 * Millisecond)); d != 750*Millisecond {
		t.Fatalf("Sub: %v", d)
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After broken")
	}
	if s := Time(1500 * Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Seconds: %v", s)
	}
	if ms := Time(2 * Millisecond).Milliseconds(); ms != 2 {
		t.Fatalf("Milliseconds: %v", ms)
	}
	if str := Time(1234567 * Microsecond).String(); str != "1234.567ms" {
		t.Fatalf("String: %q", str)
	}
}

// TestForeverSaturates: "forever from now" used to wrap negative once
// the clock had left zero, so AfterFunc panicked (scheduling before now)
// and RunUntil returned at once having run nothing.
func TestForeverSaturates(t *testing.T) {
	const forever = Duration(math.MaxInt64)
	if got := Time(1).Add(forever); got != maxTime {
		t.Fatalf("Time(1).Add(forever) = %d, want the largest time", got)
	}
	if got := maxTime.Add(-1); got != maxTime-1 {
		t.Fatalf("a negative duration must still subtract, got %d", got)
	}

	s := NewScheduler()
	s.RunUntil(Time(Second))
	last := s.AfterFunc(forever, nopEvent, nil)
	if last.When() != maxTime {
		t.Fatalf("AfterFunc(forever) is due at %d, want the largest time", last.When())
	}
	ran := false
	s.AfterFunc(Second, func(Time, any) { ran = true }, nil)
	s.RunUntil(s.Now().Add(forever))
	if !ran || last.Pending() || s.Now() != maxTime || s.Processed != 2 {
		t.Fatalf("RunUntil(forever): ran=%v, last pending=%v, now=%d, processed=%d", ran, last.Pending(), s.Now(), s.Processed)
	}
}
