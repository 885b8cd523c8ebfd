package sim

import (
	"testing"
)

// wheelOp is one step of a recorded scheduling workload: schedule an
// event at a time offset, or cancel a previously scheduled one.
type wheelOp struct {
	cancel bool
	idx    int  // for cancel: which earlier op's timer to stop
	at     Time // for schedule: absolute deadline
}

// genWheelOps builds a random workload that exercises every wheel level
// and the overflow heap: deadlines cluster near the clock (level 0),
// spread across the mid levels, and overflow past the top span, with a
// healthy cancel rate to cover slot-mark reclamation on both paths.
func genWheelOps(rng *Rand, n int) []wheelOp {
	ops := make([]wheelOp, 0, n)
	scheduled := 0
	for i := 0; i < n; i++ {
		if scheduled > 0 && rng.Float64() < 0.3 {
			ops = append(ops, wheelOp{cancel: true, idx: rng.Intn(len(ops))})
			continue
		}
		var horizon Duration
		switch rng.Intn(4) {
		case 0:
			horizon = Duration(1) << wheelGranBits // inside level 0
		case 1:
			horizon = Duration(1) << (wheelGranBits + wheelBits) // level 1
		case 2:
			horizon = Duration(1) << (wheelGranBits + 2*wheelBits) // level 2
		default:
			horizon = Duration(1) << (wheelGranBits + 3*wheelBits) // overflow
		}
		ops = append(ops, wheelOp{at: Time(rng.Int63n(int64(horizon))) + 1})
		scheduled++
	}
	return ops
}

// runWheelOps replays a workload against a scheduler, interleaving the
// operations with event execution (one third of the ops are applied
// mid-run from inside callbacks via stepping), and returns the exact
// firing order as (at, seq-surrogate) pairs — the callback payload
// records its op index, which identifies the event uniquely.
func runWheelOps(s *Scheduler, ops []wheelOp) []int {
	var fired []int
	timers := make([]Timer, len(ops))
	apply := func(lo, hi int) {
		for i := lo; i < hi && i < len(ops); i++ {
			op := ops[i]
			if op.cancel {
				timers[op.idx].Stop()
				continue
			}
			at := op.at
			if at < s.Now() {
				at = s.Now() // rebase past deadlines when applied mid-run
			}
			i := i
			timers[i] = s.AtFunc(at, func(Time, any) { fired = append(fired, i) }, nil)
		}
	}
	// First third scheduled up front, then run halfway, apply the second
	// third (now relative to an advanced clock), finish, apply the rest.
	third := len(ops) / 3
	apply(0, third)
	for k := 0; k < third/2 && s.Step(); k++ {
	}
	apply(third, 2*third)
	for s.Step() {
	}
	apply(2*third, len(ops))
	for s.Step() {
	}
	return fired
}

// TestWheelHeapOrderProperty is the scheduler-ordering property test:
// for random workloads spanning every wheel level, the wheel+heap
// scheduler must pop events in exactly the order of the reference
// heap-only scheduler — same timestamps, same tie-break sequence. Run
// under -race in CI alongside the rest of the suite.
func TestWheelHeapOrderProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		ops := genWheelOps(NewRand(uint64(trial)+1), 400)

		wheel := NewScheduler()
		heapOnly := NewScheduler()
		heapOnly.noWheel = true

		got := runWheelOps(wheel, ops)
		want := runWheelOps(heapOnly, ops)

		if len(got) != len(want) {
			t.Fatalf("trial %d: wheel fired %d events, heap-only fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverges at position %d: wheel ran op %d, heap-only ran op %d",
					trial, i, got[i], want[i])
			}
		}
		if wheel.Now() != heapOnly.Now() {
			t.Fatalf("trial %d: clocks diverge: wheel %v, heap-only %v", trial, wheel.Now(), heapOnly.Now())
		}
	}
}

// TestWheelCancelReclaim pins the cancellation contract: a stopped
// wheel-resident event never fires, is reclaimed without a heap
// operation, and its slot is reusable afterwards.
func TestWheelCancelReclaim(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.AtFunc(Time(5)<<wheelGranBits, func(Time, any) { fired = true }, nil)
	if !tm.Stop() {
		t.Fatal("Stop on a pending wheel event should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	var ran bool
	s.AtFunc(Time(6)<<wheelGranBits, func(Time, any) { ran = true }, nil)
	s.Run()
	if fired {
		t.Fatal("cancelled wheel event fired")
	}
	if !ran {
		t.Fatal("live event after the cancelled one did not fire")
	}
	if s.Pending() != 0 {
		t.Fatalf("queue should drain to 0 pending, got %d", s.Pending())
	}
}
