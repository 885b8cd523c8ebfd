package sim

import "testing"

// scriptOp is one step of a scheduler script: schedule an event (which
// may call Stop when it fires), cancel an earlier one, or run a window.
type scriptOp struct {
	kind int      // opSchedule, opScheduleStop, opCancel, opRunUntil, opSteps
	idx  int      // opCancel: which earlier op's timer to stop
	d    Duration // schedule: delay from the clock; opRunUntil: window length
	n    int      // opSteps: how many events to step
}

const (
	opSchedule = iota
	opScheduleStop
	opCancel
	opRunUntil
	opSteps
)

// firing identifies one executed event by its full ordering key.
type firing struct {
	at  Time
	seq uint64
}

// genScript builds a random script whose deadlines cover every wheel
// level and the overflow heap, with cancels, bounded run windows, manual
// stepping and events that Stop the window they fire in.
func genScript(rng *Rand, n int) []scriptOp {
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.2 && i > 0:
			ops = append(ops, scriptOp{kind: opCancel, idx: rng.Intn(i)})
		case r < 0.3:
			ops = append(ops, scriptOp{kind: opRunUntil,
				d: Duration(rng.Int63n(int64(1) << (wheelGranBits + wheelBits + 2)))})
		case r < 0.35:
			ops = append(ops, scriptOp{kind: opSteps, n: 1 + rng.Intn(8)})
		default:
			horizon := int64(1) << (wheelGranBits + uint(rng.Intn(4))*wheelBits)
			kind := opSchedule
			if rng.Float64() < 0.1 {
				kind = opScheduleStop
			}
			ops = append(ops, scriptOp{kind: kind, d: Duration(rng.Int63n(horizon))})
		}
	}
	return ops
}

// runScript replays ops against s and returns every firing in execution
// order plus the handles it took (zero for non-scheduling ops). When
// drain is set the queue is run dry at the end; otherwise whatever the
// script left — wheel and heap residents, a pending Stop — stays. After every op one handle of stale is poked: it must be
// inert, and poking it must not disturb the run (the caller compares the
// firings against a scheduler that was never poked).
func runScript(t *testing.T, s *Scheduler, ops []scriptOp, drain bool, stale []Timer) ([]firing, []Timer) {
	t.Helper()
	var fired []firing
	timers := make([]Timer, len(ops))
	for i, op := range ops {
		switch op.kind {
		case opSchedule, opScheduleStop:
			seq, stop := s.seq, op.kind == opScheduleStop
			timers[i] = s.AfterFunc(op.d, func(now Time, _ any) {
				fired = append(fired, firing{now, seq})
				if stop {
					s.Stop()
				}
			}, nil)
		case opCancel:
			timers[op.idx].Stop()
		case opRunUntil:
			before := s.Now()
			s.RunUntil(s.Now().Add(op.d))
			if s.Now() < before {
				t.Fatalf("op %d: clock ran backwards across a run window: %v -> %v", i, before, s.Now())
			}
		case opSteps:
			for k := 0; k < op.n && s.Step(); k++ {
			}
		}
		if len(stale) > 0 {
			if h := stale[i%len(stale)]; h.Stop() || h.Pending() || h.When() != 0 {
				t.Fatalf("op %d: handle from before Reset is live (slot %d)", i, h.slot)
			}
		}
	}
	for drain && s.Pending() > 0 {
		s.Run()
	}
	return fired, timers
}

// TestResetMatchesFreshProperty is the reset ≡ fresh property: whatever
// a script left in the scheduler (events in every wheel level and the
// heap, a window ended by Stop), Reset followed by a second script
// executes exactly the (at, seq) sequence — and the same Processed count
// and final clock — that the second script produces on a scheduler built
// by NewScheduler. Handles taken before the Reset stay inert throughout,
// even as their slots are reused. Odd trials send every event that fits
// to the wheel, so the levels are populated however few are pending.
func TestResetMatchesFreshProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := NewRand(uint64(trial) + 1)
		pre, post := genScript(rng, 300), genScript(rng, 300)

		recycled := NewScheduler()
		recycled.MaxEvents = 1 << 20
		if trial%2 == 1 {
			recycled.bypass = 0
		}
		_, stale := runScript(t, recycled, pre, false, nil)
		if trial%2 == 1 && recycled.wheelLive == 0 {
			t.Fatalf("trial %d: the first script left nothing in the wheel", trial)
		}
		recycled.Reset()
		if recycled.Now() != 0 || recycled.Pending() != 0 || recycled.Processed != 0 ||
			recycled.MaxEvents != 0 || recycled.Step() {
			t.Fatalf("trial %d: Reset left now=%v pending=%d processed=%d maxEvents=%d",
				trial, recycled.Now(), recycled.Pending(), recycled.Processed, recycled.MaxEvents)
		}
		got, _ := runScript(t, recycled, post, true, stale)

		fresh := NewScheduler()
		fresh.bypass = recycled.bypass
		want, _ := runScript(t, fresh, post, true, nil)

		if len(got) != len(want) {
			t.Fatalf("trial %d: recycled fired %d events, fresh fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing %d diverges: recycled %+v, fresh %+v", trial, i, got[i], want[i])
			}
		}
		if recycled.Processed != fresh.Processed || recycled.Now() != fresh.Now() {
			t.Fatalf("trial %d: recycled processed=%d now=%v, fresh processed=%d now=%v",
				trial, recycled.Processed, recycled.Now(), fresh.Processed, fresh.Now())
		}
	}
}

// TestResetFoldsCounters: events and cancels a scheduler counted but had
// not yet folded into the process-wide totals (manual stepping never
// folds) must survive Reset, or events/sec loses them.
func TestResetFoldsCounters(t *testing.T) {
	events, cancels := ProcessedTotal(), TimerCancelsTotal()
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.AfterFunc(Duration(i), func(Time, any) {}, nil)
	}
	s.AfterFunc(100, func(Time, any) {}, nil).Stop()
	for i := 0; i < 3; i++ {
		s.Step()
	}
	s.Reset()
	if got := ProcessedTotal() - events; got != 3 {
		t.Fatalf("ProcessedTotal moved by %d across Reset, want 3", got)
	}
	if got := TimerCancelsTotal() - cancels; got != 1 {
		t.Fatalf("TimerCancelsTotal moved by %d across Reset, want 1", got)
	}
	s.Run()
	if got := ProcessedTotal() - events; got != 3 {
		t.Fatalf("discarded events ran or were counted after Reset: total moved by %d", got)
	}
}

// TestRunUntilStoppedKeepsClock: a window ended by Stop must leave the
// clock at the stopping event. Advancing to the deadline would strand
// the events still queued before it, and the next window would run them
// with the clock going backwards.
func TestRunUntilStoppedKeepsClock(t *testing.T) {
	s := NewScheduler()
	var last Time
	observe := func(now Time) {
		if now < last {
			t.Fatalf("clock ran backwards: %v after %v", now, last)
		}
		last = now
	}
	s.AfterFunc(1*Second, func(now Time, _ any) { observe(now); s.Stop() }, nil)
	ran := false
	s.AfterFunc(2*Second, func(now Time, _ any) { observe(now); ran = true }, nil)

	s.RunUntil(Time(10 * Second))
	observe(s.Now())
	if s.Now() != Time(1*Second) || s.Pending() != 1 {
		t.Fatalf("after stopped window: now=%v pending=%d, want 1s and 1", s.Now(), s.Pending())
	}
	s.RunUntil(Time(10 * Second))
	observe(s.Now())
	if !ran || s.Now() != Time(10*Second) {
		t.Fatalf("after second window: ran=%v now=%v, want true and 10s", ran, s.Now())
	}
}
