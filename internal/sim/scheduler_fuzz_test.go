package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// regimes are the three values of the bypass threshold the ordering
// tests sweep: every event that fits goes to the wheel, the shipped
// hybrid, and heap only (the reference schedule).
var regimes = []struct {
	name   string
	bypass int
}{
	{"always-wheel", 0},
	{"hybrid", bypassLive},
	{"heap-only", math.MaxInt},
}

// checkStructure verifies everything the scheduler's data structures
// promise between operations: every pending event waits in exactly one
// place and records it, the pool holds nothing else, the heap is a heap,
// each wheel chain is consistently doubly linked inside the slot its
// deadline maps to, occupancy bits mirror the chain heads, and the
// cached earliest slot is the earliest slot.
func checkStructure(s *Scheduler) error {
	if s.live != len(s.heap)+s.wheelLive {
		return fmt.Errorf("live=%d, len(heap)=%d + wheelLive=%d", s.live, len(s.heap), s.wheelLive)
	}
	if got := len(s.items) - len(s.free); got != s.live {
		return fmt.Errorf("pool holds %d slots in use, live=%d", got, s.live)
	}
	for i, e := range s.heap {
		it := &s.items[e.slot]
		if int(it.where) != i || it.at != e.at || it.seq != e.seq {
			return fmt.Errorf("heap[%d] names slot %d, which records where=%d at=%v seq=%d (entry at=%v seq=%d)",
				i, e.slot, it.where, it.at, it.seq, e.at, e.seq)
		}
		if i > 0 && e.less(s.heap[(i-1)>>2]) {
			return fmt.Errorf("heap[%d] precedes its parent", i)
		}
	}
	chained := 0
	for lvl := 0; lvl < wheelLevels; lvl++ {
		shift := uint(wheelGranBits + lvl*wheelBits)
		for pos := 0; pos < wheelSlots; pos++ {
			head := s.wheel[lvl][pos]
			if occ := s.wheelOcc[lvl][pos>>6]&(1<<(uint(pos)&63)) != 0; occ != (head != 0) {
				return fmt.Errorf("wheel[%d][%d]: occupancy bit %v, chain head %d", lvl, pos, occ, head)
			}
			prev := int32(0)
			for cur := head; cur != 0; cur = s.items[cur-1].next {
				it := &s.items[cur-1]
				if it.prev != prev || it.where != ^int32(lvl<<wheelBits|pos) {
					return fmt.Errorf("wheel[%d][%d]: slot %d has prev=%d (want %d) where=%d",
						lvl, pos, cur-1, it.prev, prev, it.where)
				}
				if int(uint64(it.at)>>shift)&wheelMask != pos || uint64(it.at) < s.wheelHor {
					return fmt.Errorf("wheel[%d][%d]: slot %d at=%v does not belong here (horizon %d)",
						lvl, pos, cur-1, it.at, s.wheelHor)
				}
				prev = cur
				if chained++; chained > s.wheelLive {
					return fmt.Errorf("wheel chains hold more than wheelLive=%d entries", s.wheelLive)
				}
			}
		}
	}
	if chained != s.wheelLive {
		return fmt.Errorf("wheel chains hold %d entries, wheelLive=%d", chained, s.wheelLive)
	}
	if s.wheelLive > 0 {
		shift := uint(wheelGranBits + s.wheelNextLvl*wheelBits)
		if _, start := s.wheelScan(); start != s.wheelNext ||
			s.wheel[s.wheelNextLvl][int(s.wheelNext>>shift)&wheelMask] == 0 {
			return fmt.Errorf("wheelNext=%d at level %d, earliest occupied slot starts at %d",
				s.wheelNext, s.wheelNextLvl, start)
		}
	}
	return nil
}

// refEvent is one pending event of the reference model. chain > 0 makes
// the event schedule a plain follow-up that much later when it fires.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	chain Duration
}

// refModel is the plain reference the scheduler is compared with: a
// slice kept sorted by (at, seq), a clock and the sequence counter.
type refModel struct {
	now    Time
	seq    uint64
	q      []refEvent
	nextID int
	fired  []int
	peak   int
	// ups and downs count the population's crossings of bypassLive.
	ups, downs int
}

func refAdd(t Time, d Duration) Time {
	if d > Duration(maxTime-t) {
		return maxTime
	}
	return t + Time(d)
}

func (m *refModel) resize(before int) {
	if n := len(m.q); n > m.peak {
		m.peak = n
	}
	switch was, is := before > bypassLive, len(m.q) > bypassLive; {
	case !was && is:
		m.ups++
	case was && !is:
		m.downs++
	}
}

func (m *refModel) schedule(d, chain Duration) {
	at := refAdd(m.now, d)
	// seq only grows, so the new event follows every event at or before
	// its instant.
	i := sort.Search(len(m.q), func(i int) bool { return m.q[i].at > at })
	m.q = append(m.q, refEvent{})
	copy(m.q[i+1:], m.q[i:])
	m.q[i] = refEvent{at: at, seq: m.seq, id: m.nextID, chain: chain}
	m.seq++
	m.nextID++
	m.resize(len(m.q) - 1)
}

func (m *refModel) find(id int) int {
	for i, e := range m.q {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (m *refModel) stop(id int) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	m.q = append(m.q[:i], m.q[i+1:]...)
	m.resize(len(m.q) + 1)
	return true
}

// step fires the earliest event if its time is ≤ bound.
func (m *refModel) step(bound Time) bool {
	if len(m.q) == 0 || m.q[0].at > bound {
		return false
	}
	e := m.q[0]
	m.q = m.q[1:]
	m.resize(len(m.q) + 1)
	m.now = e.at
	m.fired = append(m.fired, e.id)
	if e.chain > 0 {
		m.schedule(e.chain, 0)
	}
	return true
}

// opsHarness drives one scheduler from the same operations as the
// reference model and records what it observes.
type opsHarness struct {
	s       *Scheduler
	handles []Timer
	fired   []int
}

type opsEvent struct {
	h     *opsHarness
	id    int
	at    Time
	chain Duration
}

func opsFire(now Time, arg any) {
	e := arg.(*opsEvent)
	h := e.h
	h.fired = append(h.fired, e.id)
	if tm := h.handles[e.id]; now != e.at || tm.Pending() || tm.When() != 0 || tm.Stop() {
		panic(fmt.Sprintf("event %d fired at %v (due %v) with a live handle", e.id, now, e.at))
	}
	if e.chain > 0 {
		h.schedule(e.chain, 0)
	}
}

func (h *opsHarness) schedule(d, chain Duration) {
	e := &opsEvent{h: h, id: len(h.handles), at: refAdd(h.s.Now(), d), chain: chain}
	h.handles = append(h.handles, h.s.AfterFunc(d, opsFire, e))
}

// opsDelta spreads one byte over everything enqueue distinguishes: the
// same instant, inside the slack window, each wheel level, past the top
// level's span, and forever (which must saturate, not wrap).
func opsDelta(b byte) Duration {
	if b == 0xff {
		return math.MaxInt64
	}
	mag := Duration(b & 31)
	switch b >> 5 {
	case 0:
		return mag // same instant and a few ns
	case 1:
		return mag << 12 // ≤ 127 µs: the horizon slot and the slack window
	case 2:
		return (mag + 1) << 15 // 33 µs – 1 ms: either side of the slack boundary
	case 3:
		return (mag + 1) << 18 // 0.26 – 8.4 ms: level 0
	case 4:
		return (mag + 1) << 22 // 4.2 – 134 ms: level 0 into level 1
	case 5:
		return (mag + 1) << 27 // 0.13 – 4.3 s: level 1 into level 2
	case 6:
		return (mag + 1) << 33 // 8.6 – 275 s: level 2
	default:
		return (mag + 1) << 38 // 4.6 min – 2.4 h: level 2 into overflow
	}
}

// runSchedulerOps decodes data as (op, arg) byte pairs, applies them to
// a scheduler with the given bypass threshold and to the reference
// model, and returns the first divergence. After every operation the
// firing order, clock, pending count, one handle's Pending/When and the
// scheduler's structure are compared; the pool may never hold more
// slots than the largest population reached.
func runSchedulerOps(data []byte, bypass int) (*refModel, error) {
	s := NewScheduler()
	s.bypass = bypass
	h := &opsHarness{s: s}
	m := &refModel{}
	var dead []int // ids that fired, were stopped, or predate a Reset

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%16, data[i+1]
		fired := len(m.fired)
		switch {
		case op <= 5:
			h.schedule(opsDelta(arg), 0)
			m.schedule(opsDelta(arg), 0)
		case op == 6:
			chain := opsDelta(arg>>3|arg<<5) | 1
			h.schedule(opsDelta(arg), chain)
			m.schedule(opsDelta(arg), chain)
		case op <= 8 && len(m.q) > 0: // stop a pending event
			e := m.q[int(arg)%len(m.q)]
			tm := h.handles[e.id]
			if !tm.Pending() || tm.When() != e.at {
				return m, fmt.Errorf("op %d: event %d pending=%v when=%v, want true and %v", i/2, e.id, tm.Pending(), tm.When(), e.at)
			}
			if !tm.Stop() || !m.stop(e.id) {
				return m, fmt.Errorf("op %d: Stop of pending event %d reported false", i/2, e.id)
			}
			dead = append(dead, e.id)
		case op <= 9 && len(dead) > 0: // stop a handle that can no longer fire
			if id := dead[int(arg)%len(dead)]; h.handles[id].Stop() {
				return m, fmt.Errorf("op %d: Stop of dead event %d reported true", i/2, id)
			}
		case op <= 11:
			if got, want := s.Step(), m.step(maxTime); got != want {
				return m, fmt.Errorf("op %d: Step reported %v, want %v", i/2, got, want)
			}
		case op == 12:
			for k := 0; k <= int(arg)%32 && s.Step(); k++ {
				m.step(maxTime)
			}
		case op == 15 && arg < 32:
			s.Reset()
			before := len(m.q)
			for _, e := range m.q {
				dead = append(dead, e.id)
			}
			m.now, m.seq, m.q = 0, 0, m.q[:0]
			m.resize(before)
			if s.bypass != bypass {
				return m, fmt.Errorf("op %d: Reset changed the bypass threshold", i/2)
			}
		default:
			deadline := refAdd(m.now, opsDelta(arg))
			s.RunUntil(deadline)
			for m.step(deadline) {
			}
			m.now = deadline
		}
		dead = append(dead, m.fired[fired:]...)

		if len(h.fired) != len(m.fired) {
			return m, fmt.Errorf("op %d: %d events fired, want %d", i/2, len(h.fired), len(m.fired))
		}
		for k := fired; k < len(m.fired); k++ {
			if h.fired[k] != m.fired[k] {
				return m, fmt.Errorf("op %d: firing %d was event %d, want %d", i/2, k, h.fired[k], m.fired[k])
			}
		}
		if s.Now() != m.now || s.Pending() != len(m.q) {
			return m, fmt.Errorf("op %d: now=%v pending=%d, want %v and %d", i/2, s.Now(), s.Pending(), m.now, len(m.q))
		}
		if n := len(h.handles); n > 0 {
			id := int(arg) % n
			var when Time
			k := m.find(id)
			if k >= 0 {
				when = m.q[k].at
			}
			if tm := h.handles[id]; tm.Pending() != (k >= 0) || tm.When() != when {
				return m, fmt.Errorf("op %d: event %d pending=%v when=%v, want %v and %v", i/2, id, tm.Pending(), tm.When(), k >= 0, when)
			}
		}
		if len(s.items) > m.peak {
			return m, fmt.Errorf("op %d: pool holds %d slots, peak live was %d", i/2, len(s.items), m.peak)
		}
		if err := checkStructure(s); err != nil {
			return m, fmt.Errorf("op %d: %v", i/2, err)
		}
	}
	return m, nil
}

// FuzzSchedulerOps runs fuzzed schedule / Stop / Step / RunUntil / Reset
// sequences against the sorted-slice reference in all three regimes. The
// committed corpus (testdata/fuzz/FuzzSchedulerOps) drives the
// population across the bypass threshold in both directions;
// TestSchedulerOpsCorpusCrossesBypass holds it to that.
func FuzzSchedulerOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range regimes {
			if _, err := runSchedulerOps(data, r.bypass); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
	})
}
