// Scheme-conformance suite: every controller in the registry is driven
// with canned ACK/loss/timer traces against a scripted Env and must
// uphold the invariants that define its scheme — window monotonicity
// under in-order ACKs, PCP's once-per-loss-event halving, Halfback's
// second-half replication trigger, timeout window collapse, and the
// transport's RTO-backoff reset on ACK progress. Because the Env here is
// a fake, these tests pin the *decision logic* independently of the
// simulator: a refactor of the transport cannot silently change what a
// scheme decides.
package cc_test

import (
	"fmt"
	"math"
	"testing"

	"halfback/internal/cc"
	"halfback/internal/core"
	"halfback/internal/netem"
	"halfback/internal/protocols/fixedwin"
	"halfback/internal/protocols/jumpstart"
	"halfback/internal/protocols/pcp"
	"halfback/internal/protocols/tcp"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// sendRec is one SendSegment call the controller made.
type sendRec struct {
	Seq        int32
	Retransmit bool
	Proactive  bool
	At         sim.Time
}

// paceRec is one Pace call.
type paceRec struct {
	Lo, Hi int32
	Total  sim.Duration
}

// traceEnv is a scripted cc.Env: a real transport scoreboard plus
// recorders for every action the controller takes. It mirrors the
// transport's observation semantics (WindowLimit, DupThresh defaults)
// without any scheduler, so traces are fully deterministic and each
// event is hand-delivered.
type traceEnv struct {
	sc        *transport.Scoreboard
	numSegs   int32
	fcw       int32
	dupThresh int
	hsRTT     sim.Duration
	srtt      sim.Duration
	finished  bool
	completed bool
	estAt     sim.Time
	finAt     sim.Time
	now       sim.Time

	sends      []sendRec
	probes     []int32
	paces      []paceRec
	armed      map[cc.TimerKind]sim.Duration
	stops      int
	violations []string
}

func newTraceEnv(n int32) *traceEnv {
	return &traceEnv{
		sc:        transport.NewScoreboard(n),
		numSegs:   n,
		fcw:       1 << 20,
		dupThresh: 3,
		hsRTT:     100 * sim.Millisecond,
		srtt:      100 * sim.Millisecond,
		armed:     map[cc.TimerKind]sim.Duration{},
	}
}

func (e *traceEnv) Sack() cc.Sack                      { return e.sc }
func (e *traceEnv) NumSegs() int32                     { return e.numSegs }
func (e *traceEnv) FlowBytes() int                     { return int(e.numSegs) * netem.SegmentPayload }
func (e *traceEnv) FcwSegs() int32                     { return e.fcw }
func (e *traceEnv) DupThresh() int                     { return e.dupThresh }
func (e *traceEnv) HandshakeRTT() sim.Duration         { return e.hsRTT }
func (e *traceEnv) SRTT() sim.Duration                 { return e.srtt }
func (e *traceEnv) Finished() bool                     { return e.finished }
func (e *traceEnv) Established() bool                  { return true }
func (e *traceEnv) Completed() bool                    { return e.completed }
func (e *traceEnv) EstablishedAt() sim.Time            { return e.estAt }
func (e *traceEnv) FinishedAt() sim.Time               { return e.finAt }
func (e *traceEnv) Path() (netem.NodeID, netem.NodeID) { return 1, 2 }

func (e *traceEnv) WindowLimit() int32 {
	lim := e.sc.CumAck() + e.fcw
	if lim > e.numSegs {
		lim = e.numSegs
	}
	return lim
}

func (e *traceEnv) SendSegment(seq int32, retransmit, proactive bool, now sim.Time) {
	if e.finished {
		return // the real transport no-ops terminal sends
	}
	if seq < 0 || seq >= e.numSegs {
		e.violations = append(e.violations,
			fmt.Sprintf("SendSegment seq %d out of range [0,%d)", seq, e.numSegs))
		return
	}
	e.sends = append(e.sends, sendRec{seq, retransmit, proactive, now})
	e.sc.NoteSend(seq, retransmit)
}

func (e *traceEnv) SendProbe(seq int32, size int, now sim.Time) {
	if size <= 0 {
		e.violations = append(e.violations, fmt.Sprintf("SendProbe size %d", size))
	}
	e.probes = append(e.probes, seq)
}

func (e *traceEnv) Pace(lo, hi int32, total sim.Duration) {
	if lo < 0 || hi > e.numSegs || total < 0 {
		e.violations = append(e.violations,
			fmt.Sprintf("Pace(%d,%d,%v) out of range", lo, hi, total))
		return
	}
	e.paces = append(e.paces, paceRec{lo, hi, total})
}

func (e *traceEnv) ArmTimer(kind cc.TimerKind, d sim.Duration) { e.armed[kind] = d }
func (e *traceEnv) StopTimer(kind cc.TimerKind)                { delete(e.armed, kind); e.stops++ }

// finishPacing simulates the transport pacer completing the most recent
// Pace request: every segment of the range goes out as a first copy,
// then the pace-done sentinel fires.
func (e *traceEnv) finishPacing(t *testing.T, ctrl cc.Controller) {
	t.Helper()
	if len(e.paces) == 0 {
		t.Fatal("finishPacing: controller never called Pace")
	}
	p := e.paces[len(e.paces)-1]
	for seq := p.Lo; seq < p.Hi; seq++ {
		if !e.sc.SentOnce(seq) {
			e.sc.NoteSend(seq, false)
		}
	}
	e.now = e.now.Add(p.Total)
	ctrl.OnTimer(e, cc.TimerPaceDone, e.now)
}

// ack folds a cumulative+SACK acknowledgement into the scoreboard and
// delivers the resulting event, exactly as the transport would.
func (e *traceEnv) ack(ctrl cc.Controller, cum int32, ranges ...netem.SeqRange) cc.AckEvent {
	pkt := &netem.Packet{Kind: netem.KindAck, CumAck: cum, AckedSeq: -1}
	for i, r := range ranges {
		pkt.SACK[i] = r
	}
	pkt.NumSACK = len(ranges)
	up := e.sc.Update(pkt)
	ev := cc.AckEvent{NewCumAcked: up.NewCumAcked, NewSacked: up.NewSacked, Duplicate: up.Duplicate}
	ctrl.OnAck(e, ev, e.now)
	return ev
}

// probeAck delivers PCP probe feedback.
func (e *traceEnv) probeAck(ctrl cc.Controller, seq int32, owd sim.Duration) {
	ctrl.OnAck(e, cc.AckEvent{Duplicate: true, Probe: true, Seq: seq, OWD: owd}, e.now)
}

func (e *traceEnv) timeout(ctrl cc.Controller) {
	ctrl.OnLoss(e, e.now)
}

func (e *traceEnv) advance(d sim.Duration) { e.now = e.now.Add(d) }

func (e *traceEnv) checkViolations(t *testing.T) {
	t.Helper()
	for _, v := range e.violations {
		t.Errorf("env contract violation: %s", v)
	}
}

// windowRows lists every window-based controller with the preparation
// its trace needs before in-order ACKs are meaningful.
func windowRows() []struct {
	name string
	mk   func() cc.Controller
	prep func(t *testing.T, e *traceEnv, ctrl cc.Controller)
} {
	none := func(t *testing.T, e *traceEnv, ctrl cc.Controller) {}
	paced := func(t *testing.T, e *traceEnv, ctrl cc.Controller) { e.finishPacing(t, ctrl) }
	return []struct {
		name string
		mk   func() cc.Controller
		prep func(t *testing.T, e *traceEnv, ctrl cc.Controller)
	}{
		{scheme.TCP, tcp.New(tcp.Config{InitialWindow: 2}), none},
		{scheme.TCP10, tcp.New(tcp.Config{InitialWindow: 10}), none},
		{scheme.TCPCache, tcp.New(tcp.Config{InitialWindow: 2, Cache: tcp.NewPathCache()}), none},
		{scheme.Reactive, scheme.MustNew(scheme.Reactive).Make, none},
		{scheme.Proactive, scheme.MustNew(scheme.Proactive).Make, none},
		{scheme.JumpStart, jumpstart.New(), paced},
		{scheme.Halfback, core.New(core.Config{}), paced},
		{scheme.FixedWindow, fixedwin.New(fixedwin.DefaultWindow), none},
	}
}

// TestConformanceWindowMonotoneUnderInOrderAcks: a loss-free trace of
// in-order cumulative ACKs must never shrink a window-based scheme's
// window. This is the invariant that separates normal operation from
// loss response in every windowed scheme.
func TestConformanceWindowMonotoneUnderInOrderAcks(t *testing.T) {
	for _, row := range windowRows() {
		t.Run(row.name, func(t *testing.T) {
			const n = 40
			e := newTraceEnv(n)
			ctrl := row.mk()
			ctrl.OnEstablished(e, 0)
			row.prep(t, e, ctrl)

			prev := ctrl.Decision().CwndSegs
			for cum := int32(1); cum < n && cum <= e.sc.HighSent()+1; cum++ {
				e.advance(10 * sim.Millisecond)
				e.ack(ctrl, cum)
				d := ctrl.Decision()
				if math.IsNaN(d.CwndSegs) || math.IsInf(d.CwndSegs, 0) || d.CwndSegs < 0 {
					t.Fatalf("cum=%d: window %v is not a finite non-negative number", cum, d.CwndSegs)
				}
				if d.CwndSegs < prev {
					t.Fatalf("cum=%d: window shrank %v -> %v with no loss signal", cum, prev, d.CwndSegs)
				}
				prev = d.CwndSegs
			}
			e.checkViolations(t)
		})
	}
}

// TestConformanceTimeoutCollapsesWindow: a retransmission timeout must
// collapse a TCP-family window to one segment (RFC 5681) and retransmit
// the first hole; Fixed-Window, by definition, must not move at all.
func TestConformanceTimeoutCollapsesWindow(t *testing.T) {
	rows := []struct {
		name     string
		mk       func() cc.Controller
		prep     func(t *testing.T, e *traceEnv, ctrl cc.Controller)
		collapse bool
	}{
		{scheme.TCP, tcp.New(tcp.Config{InitialWindow: 10}), nil, true},
		{scheme.Reactive, scheme.MustNew(scheme.Reactive).Make, nil, true},
		{scheme.JumpStart, jumpstart.New(),
			func(t *testing.T, e *traceEnv, ctrl cc.Controller) { e.finishPacing(t, ctrl) }, true},
		{scheme.FixedWindow, fixedwin.New(fixedwin.DefaultWindow), nil, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newTraceEnv(20)
			ctrl := row.mk()
			ctrl.OnEstablished(e, 0)
			if row.prep != nil {
				row.prep(t, e, ctrl)
			}
			if e.sc.HighSent() < 0 {
				t.Fatal("controller sent nothing at establishment")
			}
			before := ctrl.Decision().CwndSegs
			sendsBefore := len(e.sends)

			e.advance(sim.Second)
			e.timeout(ctrl)

			after := ctrl.Decision().CwndSegs
			if row.collapse {
				if after > 1 {
					t.Fatalf("window after timeout %v, want collapse to ≤1 (was %v)", after, before)
				}
			} else if after != before {
				t.Fatalf("Fixed-Window moved on timeout: %v -> %v", before, after)
			}
			// Recovery must begin: the first hole goes out again.
			var retx bool
			for _, s := range e.sends[sendsBefore:] {
				if s.Seq == 0 && s.Retransmit {
					retx = true
				}
			}
			if !retx {
				t.Fatal("timeout did not retransmit the first hole")
			}
			e.checkViolations(t)
		})
	}
}

// pcpWarmup drives a fresh PCP controller through one clean probe round
// (flat one-way delay, perfectly preserved spacing) so it verifies its
// target rate and starts the paced data stream, then ticks out more
// segments. Returns the env positioned after `ticks` data sends.
func pcpWarmup(t *testing.T, ticks int) (*traceEnv, *pcp.Logic) {
	t.Helper()
	e := newTraceEnv(40)
	ctrl := pcp.New()().(*pcp.Logic)
	ctrl.OnEstablished(e, 0)
	if len(e.probes) != 0 {
		t.Fatalf("probes sent before their timers fired: %v", e.probes)
	}
	// Fire the five probe-train timers at their armed offsets.
	for i := 0; i < pcp.ProbeTrainLen; i++ {
		k := cc.TimerAux(i)
		d, ok := e.armed[k]
		if !ok {
			t.Fatalf("probe packet %d has no armed timer", i)
		}
		e.now = sim.Time(0).Add(d)
		ctrl.OnTimer(e, k, e.now)
	}
	if len(e.probes) != pcp.ProbeTrainLen {
		t.Fatalf("probe train sent %d packets, want %d", len(e.probes), pcp.ProbeTrainLen)
	}
	// Flat OWD: the path absorbed the train, so the probe must succeed.
	for _, seq := range e.probes {
		e.probeAck(ctrl, seq, 30*sim.Millisecond)
	}
	if ctrl.ProbeFailures() != 0 {
		t.Fatalf("clean probe counted as failure (failures=%d)", ctrl.ProbeFailures())
	}
	// The data stream is now ticking; each tick sends one segment.
	for i := 0; i < ticks; i++ {
		d, ok := e.armed[cc.TimerTick]
		if !ok {
			t.Fatalf("tick %d: data stream stopped ticking", i)
		}
		e.now = e.now.Add(d)
		ctrl.OnTimer(e, cc.TimerTick, e.now)
	}
	return e, ctrl
}

// TestConformancePCPHalvesOncePerLossEvent: PCP's defining loss rule.
// Within one loss event (deemed-lost segments at or below the HighSent
// recorded at the cut) repeated loss-signalling ACKs must not halve the
// rate again; a loss past the event boundary must.
func TestConformancePCPHalvesOncePerLossEvent(t *testing.T) {
	e, ctrl := pcpWarmup(t, 9) // segments 0..9 sent
	if hi := e.sc.HighSent(); hi != 9 {
		t.Fatalf("warmup sent through %d, want 9", hi)
	}
	rate0 := ctrl.Rate()
	if rate0 <= 0 {
		t.Fatalf("rate %v after clean probe", rate0)
	}

	// SACK 4..9 with cum stuck at 0: segment 0 is deemed lost.
	e.advance(10 * sim.Millisecond)
	e.ack(ctrl, 0, netem.SeqRange{Lo: 4, Hi: 10})
	rate1 := ctrl.Rate()
	if rate1 >= rate0 {
		t.Fatalf("loss event did not cut the rate: %v -> %v", rate0, rate1)
	}

	// The same loss signalled again and again: same event, no further cut.
	for i := 0; i < 5; i++ {
		e.advance(10 * sim.Millisecond)
		e.ack(ctrl, 0, netem.SeqRange{Lo: 4, Hi: 10})
		if r := ctrl.Rate(); r != rate1 {
			t.Fatalf("dup loss signal %d re-cut the rate: %v -> %v (once-per-event violated)", i, rate1, r)
		}
	}

	// Progress past the event, then a fresh hole above the old HighSent:
	// a new event, which must cut once more.
	e.advance(10 * sim.Millisecond)
	e.ack(ctrl, 10)          // clears the event: CumAck > LossEventEnd
	for i := 0; i < 6; i++ { // tick out segments 10..15
		d, ok := e.armed[cc.TimerTick]
		if !ok {
			break
		}
		e.now = e.now.Add(d)
		ctrl.OnTimer(e, cc.TimerTick, e.now)
	}
	if e.sc.HighSent() < 13 {
		t.Fatalf("stream did not resume (HighSent %d)", e.sc.HighSent())
	}
	pre := ctrl.Rate()
	e.advance(10 * sim.Millisecond)
	e.ack(ctrl, 10, netem.SeqRange{Lo: 11, Hi: 14}) // segment 10 deemed lost: new event
	if r := ctrl.Rate(); r >= pre {
		t.Fatalf("fresh loss event did not cut the rate: %v -> %v", pre, r)
	}
	e.checkViolations(t)
}

// TestConformancePCPRecoveryBoundedByProbedRate: loss-free progress
// climbs the rate back multiplicatively but never beyond what a probe
// actually verified, and never below the one-segment-per-RTT floor.
func TestConformancePCPRecoveryBoundedByProbedRate(t *testing.T) {
	e, ctrl := pcpWarmup(t, 9)
	probed := ctrl.Rate()

	e.advance(10 * sim.Millisecond)
	e.ack(ctrl, 0, netem.SeqRange{Lo: 4, Hi: 10}) // cut
	cut := ctrl.Rate()

	// Loss-free cumulative progress past the event: climb, capped.
	last := cut
	for cum := int32(10); cum <= e.sc.HighSent()+1 && cum <= 20; cum++ {
		e.advance(10 * sim.Millisecond)
		e.ack(ctrl, cum)
		r := ctrl.Rate()
		if r < last {
			t.Fatalf("recovery shrank the rate: %v -> %v", last, r)
		}
		if r > probed {
			t.Fatalf("recovery climbed past the probe-verified rate: %v > %v", r, probed)
		}
		last = r
		// Keep the stream supplied so ticks continue to extend HighSent.
		if d, ok := e.armed[cc.TimerTick]; ok {
			e.now = e.now.Add(d)
			ctrl.OnTimer(e, cc.TimerTick, e.now)
		}
	}
	if last <= cut {
		t.Fatalf("rate never recovered from the cut (%v)", cut)
	}

	// Repeated timeouts can never push the rate below the floor or
	// produce a non-finite value.
	for i := 0; i < 40; i++ {
		e.advance(sim.Second)
		e.timeout(ctrl)
		r := ctrl.Rate()
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("timeout %d: rate %v", i, r)
		}
	}
	e.checkViolations(t)
}

// TestConformanceHalfbackROPRTrigger: Halfback's second-half replication.
// Proactive copies must not start before the pacing phase completes;
// once it does, each ACK clocks exactly one proactive retransmission of
// the highest unacknowledged segment, walking backwards, so the pointer
// meets the ACK frontier in the middle — ~50% of the prefix replicated.
func TestConformanceHalfbackROPRTrigger(t *testing.T) {
	const n = 10
	e := newTraceEnv(n)
	ctrl := core.New(core.Config{})().(*core.Logic)
	ctrl.OnEstablished(e, 0)
	if len(e.paces) != 1 || e.paces[0].Lo != 0 || e.paces[0].Hi != n {
		t.Fatalf("pacing request %+v, want the whole flow [0,%d)", e.paces, n)
	}

	// Pacing still in flight (segments out, sentinel not fired): an ACK
	// must not trigger replication.
	for seq := int32(0); seq < n; seq++ {
		e.sc.NoteSend(seq, false)
	}
	e.advance(20 * sim.Millisecond)
	e.ack(ctrl, 1)
	for _, s := range e.sends {
		if s.Proactive {
			t.Fatalf("proactive copy of %d before pacing completed", s.Seq)
		}
	}

	// Pacing completes; now every ACK clocks one reverse-order copy.
	e.now = e.now.Add(80 * sim.Millisecond)
	ctrl.OnTimer(e, cc.TimerPaceDone, e.now)
	var proactive []int32
	for cum := int32(2); cum < n; cum++ {
		e.advance(10 * sim.Millisecond)
		mark := len(e.sends)
		e.ack(ctrl, cum)
		newSends := e.sends[mark:]
		if len(newSends) > 1 {
			t.Fatalf("ACK %d clocked %d sends, want at most one (ACK-clocking violated)", cum, len(newSends))
		}
		for _, s := range newSends {
			if s.Proactive {
				proactive = append(proactive, s.Seq)
			}
		}
	}
	// Reverse walk from the top until the pointer meets the ascending
	// ACK frontier: 9,8,7,6 — the second half of the prefix, each
	// segment covered exactly once (segment 5 is cumulatively
	// acknowledged before the pointer reaches it).
	want := []int32{9, 8, 7, 6}
	if len(proactive) != len(want) {
		t.Fatalf("proactive copies %v, want the reverse-order second half %v", proactive, want)
	}
	for i := range want {
		if proactive[i] != want[i] {
			t.Fatalf("proactive copies %v, want %v", proactive, want)
		}
	}

	// The top of the flow becomes SACKed: no holes remain in the prefix,
	// so the phase must declare itself done.
	e.advance(10 * sim.Millisecond)
	e.ack(ctrl, 9, netem.SeqRange{Lo: 9, Hi: 10})
	if !ctrl.ROPRDone() {
		t.Fatal("ROPR not done after every paced segment was acknowledged or covered")
	}
	e.checkViolations(t)
}

// TestConformanceHalfbackROPRBudgetRatio: the 2-of-3 variant spends two
// replication credits per three ACKs — the §5 reduced-budget knob.
func TestConformanceHalfbackROPRBudgetRatio(t *testing.T) {
	const n = 20
	e := newTraceEnv(n)
	ctrl := core.New(core.Config{ProactiveRatio: 2.0 / 3.0})().(*core.Logic)
	ctrl.OnEstablished(e, 0)
	e.finishPacing(t, ctrl)

	var proactive int
	const acks = 9
	for cum := int32(1); cum <= acks; cum++ {
		e.advance(10 * sim.Millisecond)
		mark := len(e.sends)
		e.ack(ctrl, cum)
		for _, s := range e.sends[mark:] {
			if s.Proactive {
				proactive++
			}
		}
	}
	// Credit accumulates in floating point, so the count may run one
	// behind the exact ⌊acks·ratio⌋; what matters is that the budget is
	// strictly below one copy per ACK and close to the configured ratio.
	lo, hi := acks*2/3-1, acks*2/3
	if proactive < lo || proactive > hi {
		t.Fatalf("ratio 2/3 sent %d proactive copies across %d ACKs, want %d..%d", proactive, acks, lo, hi)
	}
	e.checkViolations(t)
}

// TestConformanceRTOBackoffResetOnAck pins the transport-side invariant
// the controllers rely on: exponential RTO backoff accumulated across a
// dead period is cleared by the first cumulative-ACK progress, so one
// outage does not tax the rest of the flow.
func TestConformanceRTOBackoffResetOnAck(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	blocked := true
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		return !(blocked && pkt.Kind == netem.KindData)
	})
	conn := w.Dial(20_000, transport.Options{MaxTimeouts: -1},
		tcp.New(tcp.Config{InitialWindow: 2}))
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(10 * sim.Second))
	if conn.RTOBackoff() < 2 {
		t.Fatalf("outage produced backoff %d, want ≥2", conn.RTOBackoff())
	}
	blocked = false
	w.Sched.RunUntil(sim.Time(120 * sim.Second))
	conn.Abort()
	if !conn.Stats.Completed {
		t.Fatal("flow did not complete after the path recovered")
	}
	if conn.RTOBackoff() != 0 {
		t.Fatalf("backoff %d after ACK progress, want 0", conn.RTOBackoff())
	}
}

// TestConformanceEveryRegistrySchemeEstablishes is the cheap smoke that
// keeps the suite honest as schemes are added: every registry controller
// survives establishment, a first ACK, and a timeout on the fake Env,
// and reports a sane Decision throughout.
func TestConformanceEveryRegistrySchemeEstablishes(t *testing.T) {
	for _, name := range scheme.AllNames() {
		t.Run(name, func(t *testing.T) {
			e := newTraceEnv(16)
			ctrl := scheme.MustNew(name).Make()
			ctrl.OnEstablished(e, 0)
			if len(e.paces) == 0 && e.sc.HighSent() < 0 && len(e.armed) == 0 {
				t.Fatal("controller neither sent, paced, nor armed a timer at establishment")
			}
			if len(e.paces) > 0 {
				e.finishPacing(t, ctrl)
			}
			e.advance(50 * sim.Millisecond)
			if e.sc.HighSent() >= 0 {
				e.ack(ctrl, 1)
			}
			e.advance(sim.Second)
			e.timeout(ctrl)
			d := ctrl.Decision()
			for _, v := range []float64{d.CwndSegs, d.RateBps} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decision %+v has a non-finite or negative field", d)
				}
			}
			e.checkViolations(t)
		})
	}
}
