package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// EventFunc is a callback scheduled to run at a point in virtual time:
// a top-level (or otherwise long-lived) function plus an explicit
// argument. Link transmit/propagation completions, RTO timers, pacing
// ticks and flow starts all schedule this way, so the steady-state event
// loop performs no heap allocation: the function value is shared and a
// pointer-typed arg fits in an interface without boxing.
type EventFunc func(now Time, arg any)

// Timer is a handle to a scheduled event that can be stopped or
// inspected. Timers are plain values: the zero value is an inert handle
// (Stop and Pending return false), and copying a Timer copies the
// handle, not the event.
//
// Internally a Timer names a slot in the scheduler's event pool plus the
// generation the slot had when the event was scheduled. A slot is
// recycled the moment its event fires or is stopped; the generation
// check makes a stale handle inert rather than able to resurrect (or
// cancel) whatever event reused the slot.
type Timer struct {
	s    *Scheduler
	slot int32 // pool index + 1; 0 marks the zero-value handle
	gen  uint32
}

// item resolves the handle to its pool entry, or nil if the handle is
// zero-valued or the slot has since been recycled.
func (t Timer) item() *eventItem {
	if t.s == nil || t.slot == 0 {
		return nil
	}
	it := &t.s.items[t.slot-1]
	if it.gen != t.gen {
		return nil
	}
	return it
}

// Stop cancels the timer. It is safe to call on the zero value and on an
// already-fired or already-stopped timer, and reports whether the call
// prevented a pending firing. Cancellation is removal: a wheel-resident
// event is unlinked from its slot chain in O(1), a heap-resident one is
// removed at its recorded index, and either way the pool slot is
// released before Stop returns, so the handle is inert from then on and
// the scheduler never holds an entry that will not fire.
func (t Timer) Stop() bool {
	it := t.item()
	if it == nil {
		return false
	}
	s, slot := t.s, t.slot-1
	if it.where >= 0 {
		s.heapRemove(int(it.where))
	} else {
		s.wheelUnlink(slot)
	}
	s.release(slot)
	s.live--
	s.cancels++
	return true
}

// Pending reports whether the timer is scheduled and has neither fired
// nor been stopped.
func (t Timer) Pending() bool { return t.item() != nil }

// When returns the virtual time a pending timer is set to fire, or zero
// once it has fired, been stopped, or never existed.
func (t Timer) When() Time {
	if it := t.item(); it != nil {
		return it.at
	}
	return 0
}

// eventItem is one pooled event. Items live in Scheduler.items and are
// referenced by index, never by pointer, so the pool can grow without
// invalidating references; gen counts recycles so stale Timer handles
// cannot touch a reused slot. A scheduled item waits in exactly one
// place and records it, which is what lets Stop remove it: where ≥ 0 is
// its index in the heap (kept current by every sift), where < 0 is the
// complement of the wheel slot (level<<wheelBits | position) whose
// doubly linked chain holds it through next/prev (pool index + 1; 0
// terminates; meaningful only while the item is in a chain).
type eventItem struct {
	at    Time
	seq   uint64
	efn   EventFunc
	arg   any
	next  int32
	prev  int32
	gen   uint32
	where int32
}

// The hierarchical timer wheel in front of the heap: three levels of 256
// fixed slots. Level 0 slots are 2^16 ns (~65.5 µs) wide, each higher
// level is 256× coarser, so the wheel spans ~16.8 ms / ~4.3 s / ~18 min
// ahead of its horizon; anything farther out overflows to the heap.
// Near-future events — serialization completions, RTOs, pacer ticks,
// delayed ACKs — insert and cancel in O(1) here and only pass through
// the heap (briefly, and in a heap kept small by the wheel) when their
// slot is dumped. A universe with little pending skips it entirely (see
// bypassLive).
const (
	wheelGranBits = 16 // log2 of the level-0 slot width in ns
	wheelBits     = 8  // log2 slots per level
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 3
	wheelWords    = wheelSlots / 64
	// wheelSlack is how many level-0 slots past the horizon an event may
	// target and still bypass the wheel for the heap (see enqueue).
	wheelSlack = 8
	// bypassLive is the population at or below which a new event goes
	// straight to the heap whatever its deadline. The wheel pays for
	// itself by keeping the heap shallow under hundreds of pending
	// events; ordering a handful, its dump-and-rescan hops cost more
	// than sifting a heap that small. Because Stop removes, the heap
	// holds only events that will fire, so sending it everything is safe
	// at any cancel rate. DESIGN.md §11 has the paired runs that chose
	// the value.
	bypassLive = 16
)

// Scheduler is the discrete-event loop. It is not safe for concurrent
// use; a simulation runs on a single goroutine, which is both faster and
// — more importantly — deterministic.
//
// Ordering: every event carries a (at, seq) key — seq is a monotone
// scheduling counter, so events at the same instant run in scheduling
// order. The heap is the single ordering authority: wheel slots are
// dumped into it strictly before any event they could contain becomes
// runnable, so the wheel changes where events wait, never the order in
// which they execute. Fired and stopped items return to a free list at
// once, so the pool never exceeds the peak number of live events and the
// steady-state loop is allocation-free.
type Scheduler struct {
	now Time
	seq uint64
	// heap is a 4-ary min-heap of (at, seq, slot) entries: the ordering
	// key is carried inline so sift comparisons stay within the heap's
	// own memory; only an entry that moves writes its new index back to
	// the items pool.
	heap []heapEntry
	// items is the index-stable event pool; free holds recycled slots.
	items []eventItem
	free  []int32
	// live counts scheduled events: len(heap) + wheelLive, nothing else.
	// peakLive tracks its high-water mark since the last flush (see
	// TakePeakPending).
	live     int
	peakLive int
	stopped  bool

	// Timer wheel state. wheel holds per-slot chain heads (pool index+1;
	// 0 = empty), wheelOcc the per-level occupancy bitmaps. wheelHor is
	// the absolute start (in ns) of the most recently dumped slot — the
	// wheel's notion of "the past"; it only moves forward. wheelLive
	// counts chained entries; wheelNext caches the earliest occupied
	// slot start and is valid whenever wheelLive > 0.
	wheel        [wheelLevels][wheelSlots]int32
	wheelOcc     [wheelLevels][wheelWords]uint64
	wheelHor     uint64
	wheelNext    uint64
	wheelNextLvl int
	wheelLive    int
	// bypass is bypassLive outside tests. The ordering property tests
	// set 0 (every event that fits goes to the wheel) and maxInt (heap
	// only, the reference schedule) beside it.
	bypass int

	// runBound, when non-zero, is the virtual-time bound of the
	// innermost Run/RunUntil window and permits external event sources
	// (link arrival rings) to claim execution slots inline via TakeNext.
	// Zero — the idle state, and the state during manually stepped or
	// strictly supervised runs — disables inline claiming, so every
	// completion goes through a real scheduler event.
	runBound Time

	// Processed counts events executed, for diagnostics and runaway
	// detection in tests. cancels counts successful Timer.Stop calls
	// (every reset of an RTO/pacer/delayed-ACK timer is a Stop plus a
	// reschedule).
	Processed uint64
	cancels   uint64
	// flushed/flushedCancels are the portions already folded into the
	// process-wide counters (see ProcessedTotal).
	flushed        uint64
	flushedCancels uint64

	// MaxEvents aborts the run (with a panic identifying the bug) when
	// more than this many events execute; zero means no limit. Scenario
	// runners set it as a backstop against accidental event storms.
	MaxEvents uint64
}

// maxTime is the largest representable virtual time; Run uses it as its
// inline-claim bound.
const maxTime = Time(1<<63 - 1)

// processedTotal accumulates events executed across every scheduler in
// the process, so the benchmark harness can report events/sec for sweeps
// that fan universes across workers. Schedulers fold their counts in at
// the end of Run/RunUntil (one atomic add per run window, nothing on the
// per-event path). timerCancelsTotal and peakPendingTotal aggregate the
// same way: cancels add, peaks max.
var (
	processedTotal    atomic.Uint64
	timerCancelsTotal atomic.Uint64
	peakPendingTotal  atomic.Uint64
)

// ProcessedTotal returns the process-wide count of executed events.
func ProcessedTotal() uint64 { return processedTotal.Load() }

// TimerCancelsTotal returns the process-wide count of successful
// Timer.Stop calls (cancel/reset churn).
func TimerCancelsTotal() uint64 { return timerCancelsTotal.Load() }

// TakePeakPending returns the largest number of simultaneously pending
// events any scheduler in the process reached since the previous call,
// and resets the high-water mark. The benchmark harness calls it around
// each exhibit to report event-structure trends alongside ns/op.
func TakePeakPending() uint64 { return peakPendingTotal.Swap(0) }

// schedulerPresize is the initial capacity of the event pool, heap and
// free list. Universes hold from ~6 (one-flow paths) to a few hundred
// (dumbbells) pending events; a small seed keeps construction cheap and
// append grows the busy ones within their first few events.
const schedulerPresize = 32

// NewScheduler returns an empty scheduler positioned at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{
		items:  make([]eventItem, 0, schedulerPresize),
		heap:   make([]heapEntry, 0, schedulerPresize),
		free:   make([]int32, 0, schedulerPresize),
		bypass: bypassLive,
	}
}

// Reset returns the scheduler to the state NewScheduler builds — time
// zero, sequence zero, nothing pending, no limits — keeping its storage.
// Every queued event is discarded without running. The event pool keeps
// its length and every slot's generation advances, so a Timer taken
// before the reset stays inert (Stop and Pending report false) instead
// of matching whatever event reuses its slot. Counts not yet folded into
// the process-wide totals are folded first, so ProcessedTotal loses
// nothing.
func (s *Scheduler) Reset() {
	s.flushProcessed()
	items, heap, free := s.items, s.heap[:0], s.free[:0]
	for i := len(items) - 1; i >= 0; i-- {
		items[i] = eventItem{gen: items[i].gen + 1}
		free = append(free, int32(i))
	}
	*s = Scheduler{items: items, heap: heap, free: free, bypass: s.bypass}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// release recycles a slot: the generation bump makes outstanding Timer
// handles inert, and clearing the callback fields drops any references
// the event pinned.
func (s *Scheduler) release(slot int32) {
	it := &s.items[slot]
	it.gen++
	it.efn = nil
	it.arg = nil
	s.free = append(s.free, slot)
}

// AtFunc schedules fn(at, arg) to run at absolute virtual time at: pass
// a top-level function and the state it needs (a pointer-typed arg does
// not allocate). Scheduling in the past is a bug in the caller and
// panics. Events at the same instant run in scheduling order.
func (s *Scheduler) AtFunc(at Time, fn EventFunc, arg any) Timer {
	return s.AtFuncSeq(at, s.ReserveSeq(), fn, arg)
}

// AfterFunc schedules fn(now+d, arg); see AtFunc. Negative d is clamped
// to zero, and a deadline past the largest time saturates there.
func (s *Scheduler) AfterFunc(d Duration, fn EventFunc, arg any) Timer {
	return s.AtFuncSeq(s.now.Add(max(d, 0)), s.ReserveSeq(), fn, arg)
}

// ReserveSeq hands out the next tiebreak sequence without scheduling
// anything. An external event source (a link's arrival ring) reserves a
// sequence per logical event at the instant it would historically have
// scheduled it, so completions claimed inline via TakeNext — or
// re-materialized via AtFuncSeq — keep exactly the ordering key a real
// scheduler event would have had.
func (s *Scheduler) ReserveSeq() uint64 {
	q := s.seq
	s.seq++
	return q
}

// AtFuncSeq schedules fn(at, arg) under a sequence previously obtained
// from ReserveSeq; AtFunc and AfterFunc are this with the next sequence.
// The (at, seq) pair must be in the future of every event executed so
// far (an external source's events are FIFO; the head is the only one
// materialized). The event takes a slot from the free list, or grows
// the pool.
func (s *Scheduler) AtFuncSeq(at Time, seq uint64, fn EventFunc, arg any) Timer {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.items = append(s.items, eventItem{})
		slot = int32(len(s.items) - 1)
	}
	it := &s.items[slot]
	it.at = at
	it.seq = seq
	it.efn = fn
	it.arg = arg
	s.live++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	s.enqueue(slot)
	return Timer{s: s, slot: slot + 1, gen: it.gen}
}

// TakeNext lets an external FIFO event source claim the next execution
// slot for a logical event at (at, seq) without a heap entry: it
// succeeds only when inline claiming is enabled for the current run
// window, the bound has not passed, and no scheduled event precedes
// (at, seq) in the total order. On success the clock advances to at and
// the event counts as processed — bit-for-bit the accounting a real
// scheduler event would have produced.
func (s *Scheduler) TakeNext(at Time, seq uint64) bool {
	if s.stopped || s.runBound == 0 || at > s.runBound {
		return false
	}
	if s.surfaced() || s.surface() {
		if e := s.heap[0]; e.at < at || (e.at == at && e.seq < seq) {
			return false
		}
	}
	s.now = at
	s.Processed++
	if s.MaxEvents > 0 && s.Processed > s.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v (event storm?)", s.MaxEvents, s.now))
	}
	return true
}

// Pending returns the number of scheduled events that have neither
// fired nor been stopped. It is O(1): a counter is maintained on
// schedule, stop and fire.
func (s *Scheduler) Pending() int { return s.live }

// enqueue places a newly allocated slot into the wheel level whose span
// covers its deadline, or into the heap when little is pending (see
// bypassLive), when the deadline is inside the current (already
// partially dumped) level-0 slot or just past it, or when it lies beyond
// the top level's span.
func (s *Scheduler) enqueue(slot int32) {
	if s.live <= s.bypass {
		s.push(slot)
		return
	}
	at := uint64(s.items[slot].at)
	// Imminent events — the horizon slot plus a small slack window —
	// go straight to the heap: they would be dumped there almost
	// immediately anyway, and skipping the wheel round-trip keeps the
	// common near-future case (link transmit completions) on the short
	// path. Any event may legally bypass the wheel; the heap is the
	// ordering authority.
	if at>>wheelGranBits <= s.wheelHor>>wheelGranBits+wheelSlack {
		s.push(slot)
		return
	}
	shift := uint(wheelGranBits)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if (at>>shift)-(s.wheelHor>>shift) < wheelSlots {
			s.wheelLink(lvl, shift, slot, at)
			return
		}
		shift += wheelBits
	}
	s.push(slot)
}

// wheelLink chains slot at the head of its wheel slot and maintains the
// occupancy bitmap and the cached earliest slot start.
func (s *Scheduler) wheelLink(lvl int, shift uint, slot int32, at uint64) {
	pos := int(at>>shift) & wheelMask
	it := &s.items[slot]
	head := s.wheel[lvl][pos]
	it.next, it.prev = head, 0
	it.where = ^int32(lvl<<wheelBits | pos)
	if head != 0 {
		s.items[head-1].prev = slot + 1
	}
	s.wheel[lvl][pos] = slot + 1
	s.wheelOcc[lvl][pos>>6] |= 1 << (uint(pos) & 63)
	if start := (at >> shift) << shift; s.wheelLive == 0 || start < s.wheelNext {
		s.wheelNext = start
		s.wheelNextLvl = lvl
	}
	s.wheelLive++
}

// wheelUnlink takes a stopped event out of its slot chain. Emptying a
// slot clears its occupancy bit, and emptying the earliest slot moves
// wheelNext on to the next occupied one, so the cache never names a slot
// with nothing in it.
func (s *Scheduler) wheelUnlink(slot int32) {
	it := &s.items[slot]
	loc := int(^it.where)
	lvl, pos := loc>>wheelBits, loc&wheelMask
	if it.prev != 0 {
		s.items[it.prev-1].next = it.next
	} else {
		s.wheel[lvl][pos] = it.next
	}
	if it.next != 0 {
		s.items[it.next-1].prev = it.prev
	}
	s.wheelLive--
	if s.wheel[lvl][pos] != 0 {
		return
	}
	s.wheelOcc[lvl][pos>>6] &^= 1 << (uint(pos) & 63)
	if s.wheelLive > 0 && lvl == s.wheelNextLvl &&
		pos == int(s.wheelNext>>uint(wheelGranBits+lvl*wheelBits))&wheelMask {
		s.wheelNextLvl, s.wheelNext = s.wheelScan()
	}
}

// wheelScan recomputes the earliest occupied slot across all levels,
// returning its level and absolute start time. Valid only when
// wheelLive > 0. Each level is a 256-bit rotated bitmap scan: at most
// four words per level.
func (s *Scheduler) wheelScan() (int, uint64) {
	bestLvl, bestStart := -1, ^uint64(0)
	shift := uint(wheelGranBits)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		cur := s.wheelHor >> shift
		if off, ok := s.wheelScanLevel(lvl, int(cur)&wheelMask); ok {
			if start := (cur + uint64(off)) << shift; start < bestStart {
				bestLvl, bestStart = lvl, start
			}
		}
		shift += wheelBits
	}
	return bestLvl, bestStart
}

// wheelScanLevel finds the smallest ring offset (0..255) from position
// pos to an occupied slot on lvl. Every occupied slot lies within 255
// positions ahead of the horizon's position — inserts bound the distance
// and the horizon is monotone — so the rotated scan is exact.
func (s *Scheduler) wheelScanLevel(lvl, pos int) (int, bool) {
	occ := &s.wheelOcc[lvl]
	w := pos >> 6
	b := uint(pos) & 63
	if v := occ[w] >> b; v != 0 {
		return bits.TrailingZeros64(v), true
	}
	for i := 1; i <= wheelWords; i++ {
		wi := (w + i) & (wheelWords - 1)
		v := occ[wi]
		if wi == w {
			v &= uint64(1)<<b - 1
		}
		if v != 0 {
			p := wi<<6 + bits.TrailingZeros64(v)
			return (p - pos) & wheelMask, true
		}
	}
	return 0, false
}

// wheelDump empties the earliest occupied slot: level-0 entries go to
// the heap, higher-level entries redistribute to finer levels (each at
// most once per level — redistribution strictly descends) or to the
// heap. Advancing the horizon to the dumped slot's start is what retires
// the slot: the invariant "every wheel entry's deadline ≥ horizon" holds
// because this slot was the earliest.
func (s *Scheduler) wheelDump() {
	// wheelNext/wheelNextLvl are maintained by wheelLink, wheelUnlink
	// and the rescan below, so the earliest slot is already known.
	lvl, start := s.wheelNextLvl, s.wheelNext
	shift := uint(wheelGranBits + lvl*wheelBits)
	pos := int(start>>shift) & wheelMask
	head := s.wheel[lvl][pos]
	s.wheel[lvl][pos] = 0
	s.wheelOcc[lvl][pos>>6] &^= 1 << (uint(pos) & 63)
	if start > s.wheelHor {
		s.wheelHor = start
	}
	for head != 0 {
		slot := head - 1
		it := &s.items[slot]
		head = it.next
		s.wheelLive--
		if lvl == 0 {
			s.push(slot)
		} else {
			s.enqueue(slot)
		}
	}
	if s.wheelLive > 0 {
		s.wheelNextLvl, s.wheelNext = s.wheelScan()
	}
}

// heapEntry is one heap element: the (at, seq) ordering key inline plus
// the items-pool slot it names.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// surfaced reports whether the heap root exists and is already the
// global minimum of the (at, seq) order — no wheel slot could precede
// it. It is small enough to inline into the per-event loops, which call
// surface only when it fails.
func (s *Scheduler) surfaced() bool {
	return len(s.heap) > 0 && (s.wheelLive == 0 || Time(s.wheelNext) > s.heap[0].at)
}

// surface dumps every wheel slot that could precede the heap root. It
// reports false when nothing is pending; after true, s.heap[0] is the
// global minimum.
func (s *Scheduler) surface() bool {
	for s.wheelLive > 0 && (len(s.heap) == 0 || Time(s.wheelNext) <= s.heap[0].at) {
		s.wheelDump()
	}
	return len(s.heap) > 0
}

// push adds a slot to the heap.
func (s *Scheduler) push(slot int32) {
	it := &s.items[slot]
	e := heapEntry{at: it.at, seq: it.seq, slot: slot}
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap)-1, e)
}

// heapRemove removes the entry at index i (0 pops the minimum): the last
// entry fills the hole and sifts whichever way restores the heap.
func (s *Scheduler) heapRemove(i int) {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(h[(i-1)>>2]) {
		s.siftUp(i, last)
	} else {
		s.siftDown(i, last)
	}
}

// siftUp places e into the hole at index i, moving it towards the root
// (the entry is written once, at its final position). Every entry that
// moves has its item's heap index updated.
func (s *Scheduler) siftUp(i int, e heapEntry) {
	h := s.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		s.items[h[i].slot].where = int32(i)
		i = p
	}
	h[i] = e
	s.items[e.slot].where = int32(i)
}

// siftDown places e into the hole at index i, moving it towards the
// leaves.
func (s *Scheduler) siftDown(i int, e heapEntry) {
	h := s.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[best]) {
				best = j
			}
		}
		if !h[best].less(e) {
			break
		}
		h[i] = h[best]
		s.items[h[i].slot].where = int32(i)
		i = best
	}
	h[i] = e
	s.items[e.slot].where = int32(i)
}

// Step executes the single next event, advancing the clock to it. It
// reports false when nothing is pending. The event's slot is recycled
// before its callback runs, so a callback rescheduling at the same
// instant reuses the hot slot and the event's own Timer handle is
// already inert inside the callback.
func (s *Scheduler) Step() bool { return s.stepBounded(maxTime) }

// stepBounded is Step with a deadline: it executes the next event only
// if its time is ≤ bound, reporting false (and leaving the event
// queued) otherwise. Run and RunUntil use it to pay one ordering pass
// per event instead of a peek plus a step.
func (s *Scheduler) stepBounded(bound Time) bool {
	if !s.surfaced() && !s.surface() {
		return false
	}
	e := s.heap[0]
	if e.at > bound {
		return false
	}
	s.heapRemove(0)
	it := &s.items[e.slot]
	s.now = e.at
	s.live--
	efn, arg := it.efn, it.arg
	s.release(e.slot)
	s.Processed++
	if s.MaxEvents > 0 && s.Processed > s.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v (event storm?)", s.MaxEvents, s.now))
	}
	efn(s.now, arg)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	s.runBound = maxTime
	for !s.stopped && s.stepBounded(maxTime) {
	}
	s.runBound = 0
	s.flushProcessed()
}

// RunUntil executes events with time ≤ deadline, leaving later events
// queued, and advances the clock to exactly deadline. A window ended by
// Stop leaves the clock at the stopping event instead: events ≤ deadline
// may still be queued, and the next window must not run them in its past.
// It is the primary way scenario runners bound an experiment's virtual
// duration.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	s.runBound = deadline
	for !s.stopped && s.stepBounded(deadline) {
	}
	s.runBound = 0
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
	s.flushProcessed()
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }

// peek returns the time of the next event, dumping due wheel slots as a
// side effect.
func (s *Scheduler) peek() (Time, bool) {
	if !s.surfaced() && !s.surface() {
		return 0, false
	}
	return s.heap[0].at, true
}

// flushProcessed folds this scheduler's event and cancel counts and its
// pending high-water mark into the process-wide totals.
func (s *Scheduler) flushProcessed() {
	if d := s.Processed - s.flushed; d > 0 {
		processedTotal.Add(d)
		s.flushed = s.Processed
	}
	if d := s.cancels - s.flushedCancels; d > 0 {
		timerCancelsTotal.Add(d)
		s.flushedCancels = s.cancels
	}
	if p := uint64(s.peakLive); p > 0 {
		for {
			cur := peakPendingTotal.Load()
			if p <= cur || peakPendingTotal.CompareAndSwap(cur, p) {
				break
			}
		}
		s.peakLive = s.live
	}
}
