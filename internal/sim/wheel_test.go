package sim

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
// healthy cancel rate to cover removal from slot chains and from the
// heap.
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
// records its op index, which identifies the event uniquely. The
// scheduler's structure is checked between the phases.
func runWheelOps(t *testing.T, s *Scheduler, ops []wheelOp) []int {
	t.Helper()
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
	check := func() {
		if err := checkStructure(s); err != nil {
			t.Fatal(err)
		}
	}
	third := len(ops) / 3
	apply(0, third)
	check()
	for k := 0; k < third/2 && s.Step(); k++ {
	}
	check()
	apply(third, 2*third)
	check()
	for s.Step() {
	}
	apply(2*third, len(ops))
	check()
	for s.Step() {
	}
	check()
	return fired
}

// TestWheelHeapOrderProperty is the scheduler-ordering property test:
// for random workloads spanning every wheel level, with populations that
// rise past the bypass threshold and drain back below it, the scheduler
// must pop events in exactly the order of the reference heap-only
// schedule — same timestamps, same tie-break sequence — whether every
// event that fits goes to the wheel or only those scheduled while more
// than bypassLive are pending. Run under -race in CI alongside the rest
// of the suite.
func TestWheelHeapOrderProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		ops := genWheelOps(NewRand(uint64(trial)+1), 400)

		var want []int
		var wantNow Time
		for i := len(regimes) - 1; i >= 0; i-- { // heap-only, the reference, first
			r := regimes[i]
			s := NewScheduler()
			s.bypass = r.bypass
			got := runWheelOps(t, s, ops)
			if want == nil {
				want, wantNow = got, s.Now()
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s fired %d events, heap-only fired %d", trial, r.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: firing order diverges at position %d: %s ran op %d, heap-only ran op %d",
						trial, i, r.name, got[i], want[i])
				}
			}
			if s.Now() != wantNow {
				t.Fatalf("trial %d: clocks diverge: %s %v, heap-only %v", trial, r.name, s.Now(), wantNow)
			}
		}
	}
}

// TestWheelCancelReclaim pins the cancellation contract on the wheel: a
// stopped wheel-resident event never fires, leaves the wheel and the
// pool at once without a heap operation, and its slot is reused by the
// next event.
func TestWheelCancelReclaim(t *testing.T) {
	s := NewScheduler()
	s.bypass = 0 // one pending event would otherwise wait in the heap
	fired := false
	tm := s.AtFunc(Time(50)<<wheelGranBits, func(Time, any) { fired = true }, nil)
	if s.wheelLive != 1 || len(s.heap) != 0 {
		t.Fatalf("test setup: event should wait in the wheel (wheelLive=%d, heap=%d)", s.wheelLive, len(s.heap))
	}
	if !tm.Stop() {
		t.Fatal("Stop on a pending wheel event should report true")
	}
	if tm.Stop() || tm.Pending() || tm.When() != 0 {
		t.Fatal("a stopped handle must be inert at once")
	}
	if s.wheelLive != 0 || len(s.heap) != 0 || len(s.free) != 1 {
		t.Fatalf("stopped event still held: wheelLive=%d heap=%d free=%d", s.wheelLive, len(s.heap), len(s.free))
	}
	var ran bool
	next := s.AtFunc(Time(60)<<wheelGranBits, func(Time, any) { ran = true }, nil)
	if next.slot != tm.slot || len(s.items) != 1 {
		t.Fatalf("stopped event's slot was not reused (slot %d then %d, pool %d)", tm.slot, next.slot, len(s.items))
	}
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

// TestWheelUnlinkChain removes the middle, head and tail of one slot's
// chain and then its last entry, checking after each that the chain, the
// occupancy bit and the cached earliest slot are what a scheduler that
// never held the stopped events would have.
func TestWheelUnlinkChain(t *testing.T) {
	s := NewScheduler()
	s.bypass = 0
	const early, late = Time(20) << wheelGranBits, Time(40) << wheelGranBits
	var tms [5]Timer
	for i := range tms { // one level-0 slot; the chain is newest first
		tms[i] = s.AtFunc(early+Time(i), nopEvent, nil)
	}
	s.AtFunc(late, nopEvent, nil)
	s.AtFunc(Time(3)<<(wheelGranBits+wheelBits), nopEvent, nil) // level 1
	pos := int(early>>wheelGranBits) & wheelMask
	chain := func() []int32 {
		var c []int32
		for cur := s.wheel[0][pos]; cur != 0; cur = s.items[cur-1].next {
			c = append(c, cur)
		}
		return c
	}
	for _, step := range []struct {
		name string
		stop int
		want []int
	}{
		{"middle", 2, []int{4, 3, 1, 0}},
		{"head", 4, []int{3, 1, 0}},
		{"tail", 0, []int{3, 1}},
		{"head of two", 3, []int{1}},
	} {
		if !tms[step.stop].Stop() {
			t.Fatalf("%s: Stop reported false", step.name)
		}
		got := chain()
		if len(got) != len(step.want) {
			t.Fatalf("%s: chain %v, want timers %v", step.name, got, step.want)
		}
		for i, w := range step.want {
			if got[i] != tms[w].slot {
				t.Fatalf("%s: chain %v, want timers %v", step.name, got, step.want)
			}
		}
		if err := checkStructure(s); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if s.wheelNext != uint64(early) || s.wheelNextLvl != 0 {
			t.Fatalf("%s: wheelNext=%d level %d, want %d level 0", step.name, s.wheelNext, s.wheelNextLvl, early)
		}
	}
	tms[1].Stop() // the slot's last entry
	if s.wheel[0][pos] != 0 || s.wheelOcc[0][pos>>6]&(1<<(uint(pos)&63)) != 0 {
		t.Fatal("emptied slot keeps a chain head or its occupancy bit")
	}
	if s.wheelNext != uint64(late) || s.wheelNextLvl != 0 || s.wheelLive != 2 {
		t.Fatalf("wheelNext=%d level %d wheelLive=%d, want %d level 0 and 2", s.wheelNext, s.wheelNextLvl, s.wheelLive, late)
	}
	if err := checkStructure(s); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.Processed != 2 || s.Now() != Time(3)<<(wheelGranBits+wheelBits) {
		t.Fatalf("ran %d events to %v, want the 2 never stopped", s.Processed, s.Now())
	}
}

// TestCancelChurnKeepsPoolAtPeakLive is the RTO-restart probe: two live
// events, the retransmit timer stopped and re-armed 200 ms out after
// every 1 ms tick, 10,000 times. Stop releases the slot, so the pool
// never outgrows the population; with lazy cancellation it held one
// dead entry per tick of a whole RTO (201 slots).
func TestCancelChurnKeepsPoolAtPeakLive(t *testing.T) {
	for _, r := range regimes {
		s := NewScheduler()
		s.bypass = r.bypass
		rto := s.AfterFunc(200*Millisecond, nopEvent, nil)
		for i := 0; i < 10000; i++ {
			s.AfterFunc(Millisecond, nopEvent, nil)
			if !s.Step() || !rto.Stop() {
				t.Fatalf("%s: cycle %d: tick did not fire or the timer was not pending", r.name, i)
			}
			rto = s.AfterFunc(200*Millisecond, nopEvent, nil)
		}
		if len(s.items) > 3 {
			t.Fatalf("%s: pool grew to %d slots with 2 events live", r.name, len(s.items))
		}
		if err := checkStructure(s); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}

// TestSchedulerOpsCorpusCrossesBypass holds the committed fuzz corpus to
// what it is for: some seed must take the population above bypassLive,
// back to it or below, and above again, so both directions of the
// heap-to-wheel hand-over run under every `go test`.
func TestSchedulerOpsCorpusCrossesBypass(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSchedulerOps/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	crossed := false
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", f, err)
		}
		m, err := runSchedulerOps([]byte(data), bypassLive)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		crossed = crossed || (m.ups >= 2 && m.downs >= 1)
	}
	if !crossed {
		t.Fatal("no corpus entry crosses the bypass threshold up, down and up again")
	}
}
