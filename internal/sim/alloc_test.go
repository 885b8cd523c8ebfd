package sim

import "testing"

// nopEvent is a top-level EventFunc so scheduling it exercises the
// closure-free path with no per-call allocation.
func nopEvent(Time, any) {}

// chainState rescheduls itself a fixed number of times, modelling the
// steady-state "event schedules the next event" loop every transport
// timer and link completion follows.
type chainState struct {
	s    *Scheduler
	left int
}

func chainEvent(now Time, arg any) {
	c := arg.(*chainState)
	if c.left == 0 {
		return
	}
	c.left--
	c.s.AtFunc(now+1, chainEvent, c)
}

// TestSchedulerSteadyStateZeroAlloc pins the event loop's hot path at
// zero allocations per event: once the pool and heap have grown to the
// working set, schedule+fire must not touch the heap allocator.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	// Warm the pool past the working set.
	for i := 0; i < 64; i++ {
		s.AtFunc(s.Now()+Time(i), nopEvent, nil)
	}
	s.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		s.AtFunc(s.Now()+1, nopEvent, nil)
		if !s.Step() {
			t.Fatal("queue unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestSchedulerChainZeroAlloc drives a self-rescheduling event chain —
// the shape of RTO re-arming and pacing ticks — at zero allocations.
func TestSchedulerChainZeroAlloc(t *testing.T) {
	s := NewScheduler()
	c := &chainState{s: s}
	allocs := testing.AllocsPerRun(100, func() {
		c.left = 50
		s.AtFunc(s.Now()+1, chainEvent, c)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("event chain allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerCancelZeroAlloc covers the arm/cancel churn pattern (restart
// RTO on every ACK): cancelled items must recycle without allocation.
func TestTimerCancelZeroAlloc(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 8; i++ { // warm
		s.AtFunc(s.Now()+1, nopEvent, nil).Stop()
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := s.AtFunc(s.Now()+1, nopEvent, nil)
		tm.Stop()
		s.AtFunc(s.Now()+1, nopEvent, nil)
		s.Step() // sweeps the cancelled item, fires the live one
	})
	if allocs != 0 {
		t.Fatalf("arm/cancel churn allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerHandleRecycledInert is the generation-counter regression
// test: Stop/Pending/When on a handle whose pooled slot has been
// recycled by a later event must be inert — report nothing pending and,
// crucially, not cancel the successor event occupying the slot.
func TestTimerHandleRecycledInert(t *testing.T) {
	s := NewScheduler()
	stale := s.AtFunc(10, func(Time, any) {}, nil)
	s.Run() // fires; slot returns to the free list

	ran := false
	fresh := s.AtFunc(20, func(Time, any) { ran = true }, nil) // reuses the slot
	if fresh.slot != stale.slot {
		t.Fatalf("test setup: expected slot reuse (stale=%d fresh=%d)", stale.slot, fresh.slot)
	}

	if stale.Pending() {
		t.Fatal("recycled handle reports Pending")
	}
	if stale.When() != 0 {
		t.Fatalf("recycled handle When() = %v, want 0", stale.When())
	}
	if stale.Stop() {
		t.Fatal("recycled handle Stop() reported success")
	}
	if !fresh.Pending() {
		t.Fatal("stale Stop cancelled the successor event")
	}
	s.Run()
	if !ran {
		t.Fatal("successor event did not run after stale-handle pokes")
	}

	// A handle stopped before firing goes stale once the heap sweeps
	// the cancelled slot; it must be equally inert afterwards.
	victim := s.AtFunc(30, func(Time, any) { t.Fatal("stopped event ran") }, nil)
	victim.Stop()
	s.AtFunc(31, func(Time, any) {}, nil)
	s.Run() // sweep recycles victim's slot
	if victim.Stop() || victim.Pending() || victim.When() != 0 {
		t.Fatal("swept cancelled handle is not inert")
	}
}

// TestZeroValueTimerInert: the zero Timer must be safe to Stop/query —
// transport code holds value timers that start life unarmed.
func TestZeroValueTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Pending() || tm.When() != 0 {
		t.Fatal("zero-value Timer is not inert")
	}
}

// TestPendingCounterTracksCancelAndFire exercises the O(1) live counter
// against schedule/cancel/fire sequences.
func TestPendingCounterTracksCancelAndFire(t *testing.T) {
	s := NewScheduler()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.AtFunc(Time(i+1), func(Time, any) {}, nil)
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending after scheduling 10: %d", got)
	}
	timers[3].Stop()
	timers[7].Stop()
	timers[7].Stop() // double-stop must not double-decrement
	if got := s.Pending(); got != 8 {
		t.Fatalf("Pending after 2 cancels: %d", got)
	}
	s.Step()
	s.Step()
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after 2 fires: %d", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain: %d", got)
	}
}
