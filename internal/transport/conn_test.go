package transport

import (
	"fmt"
	"slices"
	"testing"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// callback names one callback of cc.Controller or cc.DoneHook.
type callback uint8

const (
	cbEstablished callback = iota
	cbAck
	cbLoss
	cbTimer
	cbDone
)

// rec is one callback a recCtrl received.
type rec struct {
	cb    callback
	now   sim.Time
	ack   cc.AckEvent  // cbAck
	timer cc.TimerKind // cbTimer
}

// recCtrl is the one controller the transport's own tests run. It
// records every callback and, unless manual is set, is a minimal
// go-back-nothing sender: a timeout retransmits the cumulative point,
// and every callback but OnDone ends by filling the flow-control window
// and plugging SACK-confirmed holes once each. It exercises the Conn
// plumbing without congestion control. hook, if set, runs inside each
// callback once it is recorded and before the default sends.
type recCtrl struct {
	log    []rec
	manual bool
	hook   func(env cc.Env, r rec)
}

func (c *recCtrl) make() cc.Controller { return c }

func (c *recCtrl) note(env cc.Env, r rec) {
	c.log = append(c.log, r)
	if c.hook != nil {
		c.hook(env, r)
	}
}

func (c *recCtrl) count(cb callback) (n int) {
	for _, r := range c.log {
		if r.cb == cb {
			n++
		}
	}
	return n
}

func (c *recCtrl) OnEstablished(env cc.Env, now sim.Time) {
	c.note(env, rec{cb: cbEstablished, now: now})
	c.fill(env, now)
}

func (c *recCtrl) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	c.note(env, rec{cb: cbAck, now: now, ack: ev})
	c.fill(env, now)
}

func (c *recCtrl) OnLoss(env cc.Env, now sim.Time) {
	c.note(env, rec{cb: cbLoss, now: now})
	if c.manual {
		return
	}
	sc := env.Sack()
	sc.MarkOutstandingLost()
	if seq := sc.CumAck(); seq < env.NumSegs() && sc.SentOnce(seq) && !sc.IsAcked(seq) {
		env.SendSegment(seq, true, false, now)
	}
	c.fill(env, now)
}

func (c *recCtrl) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {
	c.note(env, rec{cb: cbTimer, now: now, timer: kind})
	c.fill(env, now)
}

func (c *recCtrl) OnDone(env cc.Env, now sim.Time) { c.note(env, rec{cb: cbDone, now: now}) }

// fill sends every never-sent segment flow control admits, then every
// SACK-confirmed hole not yet retransmitted.
func (c *recCtrl) fill(env cc.Env, now sim.Time) {
	if c.manual || env.Finished() {
		return
	}
	sc := env.Sack()
	for seq := sc.HighSent() + 1; seq < env.WindowLimit(); seq++ {
		env.SendSegment(seq, false, false, now)
	}
	for !env.Finished() { // a retransmission can exhaust Options.MaxRetx
		lost := sc.NextLost(sc.CumAck(), env.DupThresh(), 1)
		if lost < 0 {
			return
		}
		env.SendSegment(lost, true, false, now)
	}
}

func (c *recCtrl) Decision() cc.Decision { return cc.Decision{} }

// testWorld wires two stacks over a single netem path.
type testWorld struct {
	sched  *sim.Scheduler
	path   *netem.Path
	client *Stack
	server *Stack
}

func newWorld(t *testing.T, cfg netem.PathConfig) *testWorld {
	t.Helper()
	sched := sim.NewScheduler()
	sched.MaxEvents = 10_000_000
	p := netem.NewPath(sched, sim.NewRand(1), cfg)
	return &testWorld{
		sched:  sched,
		path:   p,
		client: NewStack(p.Net, p.Client),
		server: NewStack(p.Net, p.Server),
	}
}

func cleanPath() netem.PathConfig {
	return netem.PathConfig{
		RateBps: 10 * netem.Mbps, RTT: 100 * sim.Millisecond, BufferBytes: 1 << 20,
	}
}

func dial(t *testing.T, w *testWorld, bytes int, opts Options) (*Conn, *recCtrl) {
	t.Helper()
	ctrl := new(recCtrl)
	return NewConn(1, w.server, w.client, bytes, opts, ctrl.make, nil), ctrl
}

func TestHandshakeAndTransfer(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, ctrl := dial(t, w, 50_000, Options{})
	conn.Start(0)
	w.sched.Run()

	if n := ctrl.count(cbEstablished); n != 1 {
		t.Fatalf("established %d times", n)
	}
	st := conn.Stats
	if !st.Completed {
		t.Fatal("flow did not complete")
	}
	// Handshake RTT ≈ path RTT (plus tiny serialization).
	if st.HandshakeRTT < 100*sim.Millisecond || st.HandshakeRTT > 105*sim.Millisecond {
		t.Fatalf("handshake RTT %v", st.HandshakeRTT)
	}
	// 50 KB in a 141 KB window: handshake RTT + one-way delivery +
	// serialization ≈ 190 ms on this path.
	if fct := st.FCT(); fct < 150*sim.Millisecond || fct > 300*sim.Millisecond {
		t.Fatalf("FCT %v", fct)
	}
	if st.NormalRetx != 0 || st.Timeouts != 0 {
		t.Fatalf("clean path saw retx=%d timeouts=%d", st.NormalRetx, st.Timeouts)
	}
	if !conn.Finished() {
		t.Fatal("conn should be finished")
	}
	if ctrl.count(cbDone) != 1 {
		t.Fatal("DoneHook not invoked exactly once")
	}
	if st.SenderDone < st.ReceiverDone {
		t.Fatal("sender cannot learn completion before it happens")
	}
}

func TestFlowControlWindowRespected(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 500_000, Options{})
	conn.Start(0)
	// Run until just after establishment plus a hair: the controller fills
	// greedily, so exactly WindowSegments segments must be out.
	w.sched.RunUntil(sim.Time(110 * sim.Millisecond))
	want := conn.FcwSegs()
	if got := conn.Score.HighSent() + 1; got != want {
		t.Fatalf("sent %d segments, window allows %d", got, want)
	}
	w.sched.Run()
	if !conn.Stats.Completed {
		t.Fatal("windowed transfer should still complete")
	}
}

func TestSYNLossRecovery(t *testing.T) {
	// 100% loss for the first instants, then heal: model with a loss
	// probability of 1.0 toggled via the link, simplest as full loss on
	// forward path using a tiny buffer... instead use LossProb=1 then
	// set to 0 after 0.5s via a scheduled event.
	w := newWorld(t, cleanPath())
	w.path.Forward.LossProb = 1.0
	conn, _ := dial(t, w, 10_000, Options{})
	conn.Start(0)
	w.sched.AtFunc(sim.Time(500*sim.Millisecond), func(sim.Time, any) {
		w.path.Forward.LossProb = 0
	}, nil)
	w.sched.Run()
	st := conn.Stats
	if !st.Completed {
		t.Fatal("flow must complete after path heals")
	}
	if st.HandshakeRetx == 0 {
		t.Fatal("SYN retransmissions expected")
	}
	// First retry fires at the 1s initial RTO.
	if st.Established < sim.Time(1*sim.Second) {
		t.Fatalf("established too early: %v", st.Established)
	}
}

// TestHandshakeRTTIgnoresLostSYNs loses the first k SYNs and checks
// that HandshakeRTT is still one path RTT: the SYNACK echoes the send
// time of the SYN it answers, so the backoff spent on lost SYNs is not
// taken for path delay (Karn's rule). SYN i leaves at 2^i − 1 s (1 s
// initial RTO, doubling), so healing the path half a second before
// SYN k leaves loses exactly SYNs 0…k−1.
func TestHandshakeRTTIgnoresLostSYNs(t *testing.T) {
	for k := 0; k <= 5; k++ {
		w := newWorld(t, cleanPath())
		conn, _ := dial(t, w, 10_000, Options{})
		if k > 0 {
			w.path.Forward.LossProb = 1
			heal := sim.Time(0).Add(sim.Duration(1<<k)*sim.Second - 1500*sim.Millisecond)
			w.sched.AtFunc(heal, func(sim.Time, any) { w.path.Forward.LossProb = 0 }, nil)
		}
		conn.Start(0)
		w.sched.Run()
		st := conn.Stats
		if !st.Completed || int(st.HandshakeRetx) != k {
			t.Fatalf("k=%d: completed=%v after %d SYN retransmissions", k, st.Completed, st.HandshakeRetx)
		}
		if st.HandshakeRTT < 100*sim.Millisecond || st.HandshakeRTT > 105*sim.Millisecond {
			t.Errorf("k=%d lost SYNs: HandshakeRTT %v, want the 100 ms path RTT", k, st.HandshakeRTT)
		}
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, ctrl := dial(t, w, 30_000, Options{})
	// Swallow the last 3 first-copy data packets: a pure tail loss
	// with no SACKs above the holes, recoverable only by timeout.
	inner := w.path.Client.Deliver
	numSegs := int32(21) // 30 KB / 1460
	w.path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
		if pkt.Kind == netem.KindData && pkt.Seq >= numSegs-3 && !pkt.Retransmit {
			return
		}
		inner(pkt, now)
	}
	conn.Start(0)
	w.sched.Run()
	st := conn.Stats
	if !st.Completed {
		t.Fatalf("flow did not complete (rtos=%d)", ctrl.count(cbLoss))
	}
	if st.Timeouts == 0 {
		t.Fatal("tail loss should force a timeout")
	}
	if st.NormalRetx == 0 {
		t.Fatal("recovery requires retransmissions")
	}
}

func TestReceiverGeneratesSACK(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 100_000, Options{})

	// Drop exactly the 5th data packet: count data packets through the
	// forward link by wrapping Deliver on the client node.
	inner := w.path.Client.Deliver
	dropped := false
	seen := 0
	w.path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
		if pkt.Kind == netem.KindData {
			seen++
			if seen == 5 && !dropped {
				dropped = true
				return // swallow one data packet
			}
		}
		inner(pkt, now)
	}
	conn.Start(0)
	w.sched.Run()
	st := conn.Stats
	if !st.Completed {
		t.Fatal("flow did not complete")
	}
	if !st.LossSeen {
		t.Fatal("receiver hole should mark LossSeen")
	}
	if st.NormalRetx != 1 {
		t.Fatalf("exactly one retransmission expected, got %d", st.NormalRetx)
	}
	if st.Timeouts != 0 {
		t.Fatal("SACK recovery should avoid the timeout")
	}
}

func TestOnDeliverHook(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 20_000, Options{})
	var bytes int
	conn.OnDeliver = func(b int, now sim.Time) { bytes += b }
	conn.Start(0)
	w.sched.Run()
	if bytes != 20_000 {
		t.Fatalf("OnDeliver totalled %d bytes, want 20000", bytes)
	}
}

func TestAbortStopsFlow(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 100_000, Options{})
	conn.Start(0)
	w.sched.RunUntil(sim.Time(50 * sim.Millisecond)) // mid-handshake
	conn.Abort()
	if !conn.Finished() {
		t.Fatal("aborted conn should report finished")
	}
	w.sched.Run() // no panics, no further activity
	if conn.Stats.Completed {
		t.Fatal("aborted flow cannot be completed")
	}
}

func TestSegmentSizing(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, netem.SegmentPayload+100, Options{})
	if conn.NumSegs() != 2 {
		t.Fatalf("segments %d", conn.NumSegs())
	}
	if got := conn.SegmentSize(0); got != netem.SegmentSize {
		t.Fatalf("full segment size %d", got)
	}
	if got := conn.SegmentSize(1); got != 100+netem.DataHeaderBytes {
		t.Fatalf("runt segment size %d", got)
	}
}

// dialPaced dials a flow whose controller, on establishment, paces
// segments [0,10) across 90 ms and sends nothing else.
func dialPaced(t *testing.T, w *testWorld) (*Conn, *recCtrl) {
	conn, ctrl := dial(t, w, 100_000, Options{})
	ctrl.manual = true
	ctrl.hook = func(env cc.Env, r rec) {
		if r.cb == cbEstablished {
			env.Pace(0, 10, 90*sim.Millisecond)
		}
	}
	return conn, ctrl
}

// TestPaceRangeEvenSpacing observes a paced range at the receiving node:
// the wire spacing is the pacing interval.
func TestPaceRangeEvenSpacing(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dialPaced(t, w)
	var arrived []sim.Time
	inner := w.path.Client.Deliver
	w.path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
		if pkt.Kind == netem.KindData {
			arrived = append(arrived, now)
		}
		inner(pkt, now)
	}
	conn.Start(0)
	w.sched.RunUntil(sim.Time(2 * sim.Second))
	conn.Abort()
	if len(arrived) != 10 {
		t.Fatalf("%d paced segments arrived, want 10", len(arrived))
	}
	for i := 1; i < 10; i++ {
		if gap := arrived[i].Sub(arrived[i-1]); gap != 9*sim.Millisecond {
			t.Fatalf("gap %d is %v, want 9ms", i, gap)
		}
	}
}

// TestPaceRangeSendTimes pins the send instants: the first segment
// leaves at the Pace call, the rest total/n apart, and TimerPaceDone is
// delivered at the instant of the last send.
func TestPaceRangeSendTimes(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, ctrl := dialPaced(t, w)
	conn.Start(0)
	w.sched.RunUntil(sim.Time(2 * sim.Second))
	conn.Abort()
	est := conn.Stats.Established
	for seq := 0; seq < 10; seq++ {
		if want := est.Add(sim.Duration(seq) * 9 * sim.Millisecond); conn.sentAt[seq] != want {
			t.Fatalf("segment %d sent at %v, want %v", seq, conn.sentAt[seq], want)
		}
	}
	if conn.Score.HighSent() != 9 {
		t.Fatalf("pacer ran past its range: HighSent %d", conn.Score.HighSent())
	}
	var done []sim.Time
	for _, r := range ctrl.log {
		if r.cb == cbTimer && r.timer == cc.TimerPaceDone {
			done = append(done, r.now)
		}
	}
	if !slices.Equal(done, []sim.Time{conn.sentAt[9]}) {
		t.Fatalf("TimerPaceDone at %v, want once at %v", done, conn.sentAt[9])
	}
}

func TestDuplicateFlowRegistrationPanics(t *testing.T) {
	w := newWorld(t, cleanPath())
	a, _ := dial(t, w, 1000, Options{})
	a.Start(0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate flow ID must panic")
		}
	}()
	b, _ := dial(t, w, 1000, Options{}) // same ID=1
	b.Start(0)
}

func TestOptionsDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.FlowWindow != 141_000 {
		t.Fatalf("window %d", o.FlowWindow)
	}
	if o.WindowSegments() != 96 {
		t.Fatalf("window segments %d", o.WindowSegments())
	}
	var zero Options
	zero.applyDefaults()
	if zero != o {
		t.Fatalf("applyDefaults mismatch: %+v vs %+v", zero, o)
	}
}

func TestStatsRTTCount(t *testing.T) {
	st := &FlowStats{Start: 0, ReceiverDone: sim.Time(300 * sim.Millisecond)}
	if got := st.RTTCount(100 * sim.Millisecond); got != 3 {
		t.Fatalf("RTT count %v", got)
	}
	if st.RTTCount(0) != 0 {
		t.Fatal("zero RTT guard")
	}
}

func TestZeroRTTSkipsHandshake(t *testing.T) {
	w := newWorld(t, cleanPath())
	opts := Options{ZeroRTT: true, RTTHint: 100 * sim.Millisecond}
	conn, ctrl := dial(t, w, 50_000, opts)
	conn.Start(0)
	w.sched.Run()
	st := conn.Stats
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if ctrl.count(cbEstablished) != 1 {
		t.Fatal("OnEstablished must fire immediately")
	}
	if st.Established != 0 {
		t.Fatalf("establishment should be instant, got %v", st.Established)
	}
	// One full RTT saved vs the handshake version.
	hw := newWorld(t, cleanPath())
	hconn, _ := dial(t, hw, 50_000, Options{})
	hconn.Start(0)
	hw.sched.Run()
	saved := hconn.Stats.FCT() - st.FCT()
	if saved < 90*sim.Millisecond || saved > 110*sim.Millisecond {
		t.Fatalf("0-RTT should save ≈1 RTT, saved %v", saved)
	}
}

func TestDelayedAcksHalveAckStream(t *testing.T) {
	countAcks := func(opts Options) (int64, *FlowStats) {
		w := newWorld(t, cleanPath())
		acks := int64(0)
		inner := w.path.Server.Deliver
		w.path.Server.Deliver = func(pkt *netem.Packet, now sim.Time) {
			if pkt.Kind == netem.KindAck {
				acks++
			}
			inner(pkt, now)
		}
		conn, _ := dial(t, w, 100_000, opts)
		conn.Start(0)
		w.sched.Run()
		return acks, conn.Stats
	}
	perPkt, st1 := countAcks(Options{})
	delayed, st2 := countAcks(Options{DelayedAcks: true})
	if !st1.Completed || !st2.Completed {
		t.Fatal("transfers did not complete")
	}
	// 69 segments: per-packet ≈ 69 ACKs, delayed ≈ half.
	if perPkt < 69 {
		t.Fatalf("per-packet acks %d", perPkt)
	}
	if delayed > perPkt*2/3 {
		t.Fatalf("delayed acks %d vs per-packet %d — not thinned", delayed, perPkt)
	}
}

func TestDelayedAckTimerFlushesLonePacket(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 1000, Options{DelayedAcks: true}) // single segment
	conn.Start(0)
	w.sched.Run()
	st := conn.Stats
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// Completion ACK is immediate (all data arrived), so FCT must not
	// include a 40 ms delayed-ack stall.
	if st.FCT() > 160*sim.Millisecond {
		t.Fatalf("FCT %v — lone packet ACK was withheld", st.FCT())
	}
}

// TestConnEnvContract pins, from the transport side, the facts DESIGN.md
// §10 promises every controller about the Conn it runs on.
func TestConnEnvContract(t *testing.T) {
	const farOff = 1000 * sim.Second // a timer that must never fire

	// armEverything is a hook that, on establishment, leaves a paced
	// schedule (segment 0 now, segment 1 at farOff) and two controller
	// timers pending far beyond the flow's life, and a tick that does
	// fire while it is alive.
	armEverything := func(env cc.Env, r rec) {
		if r.cb == cbEstablished {
			env.Pace(0, env.NumSegs(), sim.Duration(env.NumSegs())*farOff)
			env.ArmTimer(cc.TimerPTO, farOff)
			env.ArmTimer(cc.TimerAux(cc.MaxAuxTimers-1), farOff)
			env.ArmTimer(cc.TimerTick, sim.Millisecond)
		}
	}

	// Terminal states: whatever ends the flow, everything it scheduled
	// is stopped before OnDone runs, OnDone runs once, and nothing is
	// delivered after it.
	swallowData := func(w *testWorld) {
		inner := w.path.Client.Deliver
		w.path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
			if pkt.Kind != netem.KindData {
				inner(pkt, now)
			}
		}
	}
	terminal := []struct {
		name   string
		opts   Options
		setup  func(w *testWorld, conn *Conn)
		reason AbortReason
		live   bool // the controller saw the flow established
	}{
		{name: "done", live: true},
		{name: "handshake-timeout", opts: Options{MaxSynRetx: 1}, reason: AbortHandshakeTimeout,
			setup: func(w *testWorld, _ *Conn) { w.path.Forward.LossProb = 1 }},
		{name: "timeouts", opts: Options{MaxTimeouts: 2}, reason: AbortRetxBudgetExhausted, live: true,
			setup: func(w *testWorld, _ *Conn) { swallowData(w) }},
		{name: "retx-budget", opts: Options{MaxRetx: 1}, reason: AbortRetxBudgetExhausted, live: true,
			setup: func(w *testWorld, _ *Conn) { swallowData(w) }},
		{name: "deadline", opts: Options{FlowDeadline: 150 * sim.Millisecond}, reason: AbortDeadlineExceeded, live: true},
		{name: "external", reason: AbortExternal, live: true,
			setup: func(w *testWorld, conn *Conn) {
				w.sched.AtFunc(sim.Time(150*sim.Millisecond), func(sim.Time, any) { conn.Abort() }, nil)
			}},
		{name: "peer-misbehavior", opts: Options{AckValidation: AckValidationAbort}, reason: AbortPeerMisbehavior, live: true,
			setup: func(_ *testWorld, conn *Conn) { conn.SetReceiverLogic(optimistTestLogic{}) }},
	}
	for _, tc := range terminal {
		t.Run("terminal/"+tc.name, func(t *testing.T) {
			w := newWorld(t, cleanPath())
			conn, ctrl := dial(t, w, 500_000, tc.opts)
			ctrl.hook = func(env cc.Env, r rec) {
				armEverything(env, r)
				if r.cb != cbDone {
					return
				}
				if !env.Finished() {
					t.Error("OnDone before the terminal state")
				}
				if conn.pacer.tick.Pending() || conn.rtoTimer.Pending() {
					t.Error("pacer or RTO still scheduled when OnDone runs")
				}
				for k := range conn.timers {
					if conn.timers[k].Pending() {
						t.Errorf("timer %v still armed when OnDone runs", cc.TimerKind(k))
					}
				}
				// A controller that keeps acting on the finished flow
				// (as one does whose own retransmission exhausted the
				// budget mid-callback) sends nothing and hears nothing.
				env.ArmTimer(cc.TimerReprobe, sim.Millisecond)
				env.Pace(0, 0, 0)
				env.Pace(0, 2, sim.Millisecond)
				if conn.pacer.tick.Pending() {
					t.Error("pacing a finished flow scheduled a tick")
				}
			}
			if tc.setup != nil {
				tc.setup(w, conn)
			}
			conn.Start(0)
			w.sched.Run()
			if conn.Stats.AbortReason != tc.reason || conn.Stats.Completed != (tc.reason == AbortNone) {
				t.Fatalf("ended completed=%v reason=%v, want reason %v", conn.Stats.Completed, conn.Stats.AbortReason, tc.reason)
			}
			if n := len(ctrl.log); ctrl.count(cbDone) != 1 || ctrl.log[n-1].cb != cbDone {
				t.Fatalf("OnDone ran %d times, last callback %v", ctrl.count(cbDone), ctrl.log[n-1].cb)
			}
			if got := ctrl.count(cbEstablished) == 1; got != tc.live {
				t.Fatalf("established=%v, want %v", got, tc.live)
			}
			if tc.live && ctrl.count(cbTimer) != 1 {
				t.Fatalf("%d timer callbacks, want the one 1 ms tick", ctrl.count(cbTimer))
			}
			if w.sched.Now() >= sim.Time(farOff) {
				t.Fatalf("scheduler ran to %v: something outlived the flow", w.sched.Now())
			}
		})
	}

	// The completing ACK finishes the flow without reaching OnAck; every
	// other ACK the sender accepts does reach it.
	t.Run("completing-ack", func(t *testing.T) {
		w := newWorld(t, cleanPath())
		conn, ctrl := dial(t, w, 50_000, Options{})
		ctrl.hook = func(env cc.Env, r rec) {
			if r.cb == cbAck && conn.Score.AllAcked() {
				t.Error("OnAck saw a fully acknowledged flow")
			}
		}
		arrived := 0
		inner := w.path.Server.Deliver
		w.path.Server.Deliver = func(pkt *netem.Packet, now sim.Time) {
			if pkt.Kind == netem.KindAck && !conn.Finished() {
				arrived++
			}
			inner(pkt, now)
		}
		conn.Start(0)
		w.sched.Run()
		if !conn.Stats.Completed || ctrl.count(cbAck) != arrived-1 {
			t.Fatalf("completed=%v: %d ACKs reached the sender alive, %d reached OnAck; want all but the last",
				conn.Stats.Completed, arrived, ctrl.count(cbAck))
		}
	})

	// A timeout is counted and backed off before OnLoss runs.
	t.Run("loss-after-accounting", func(t *testing.T) {
		w := newWorld(t, cleanPath())
		swallowData(w)
		conn, ctrl := dial(t, w, 50_000, Options{MaxTimeouts: 4})
		ctrl.hook = func(env cc.Env, r rec) {
			if n := ctrl.count(cbLoss); r.cb == cbLoss && (conn.Stats.Timeouts != int64(n) || conn.RTOBackoff() != n) {
				t.Errorf("OnLoss #%d ran with Timeouts=%d backoff=%d", n, conn.Stats.Timeouts, conn.RTOBackoff())
			}
		}
		conn.Start(0)
		w.sched.Run()
		if ctrl.count(cbLoss) != 4 {
			t.Fatalf("%d loss events, want 4 before the give-up", ctrl.count(cbLoss))
		}
	})

	// Re-pacing replaces the schedule: no tick of the old one is sent,
	// and only the new one reports completion.
	t.Run("re-pace", func(t *testing.T) {
		w := newWorld(t, cleanPath())
		conn, ctrl := dial(t, w, 100_000, Options{})
		ctrl.manual = true
		ctrl.hook = func(env cc.Env, r rec) {
			switch {
			case r.cb == cbEstablished:
				env.Pace(0, 10, 90*sim.Millisecond) // 0, 1, 2 leave at +0, +9, +18 ms
				env.ArmTimer(cc.TimerTick, 20*sim.Millisecond)
			case r.cb == cbTimer && r.timer == cc.TimerTick:
				env.Pace(20, 25, 50*sim.Millisecond)
			}
		}
		conn.Start(0)
		w.sched.RunUntil(sim.Time(sim.Second))
		conn.Abort()
		var sent []int32
		for seq := int32(0); seq < conn.NumSegs(); seq++ {
			if conn.Score.SentOnce(seq) {
				sent = append(sent, seq)
			}
		}
		if want := []int32{0, 1, 2, 20, 21, 22, 23, 24}; !slices.Equal(sent, want) {
			t.Fatalf("sent %v, want %v", sent, want)
		}
		if conn.Stats.DataPktsSent != 8 || ctrl.count(cbTimer) != 2 {
			t.Fatalf("%d data packets, %d timer callbacks; want 8 and 2 (the tick, one TimerPaceDone)",
				conn.Stats.DataPktsSent, ctrl.count(cbTimer))
		}
	})

	// Pacing an empty range reports completion before Pace returns.
	t.Run("empty-pace", func(t *testing.T) {
		w := newWorld(t, cleanPath())
		conn, ctrl := dial(t, w, 100_000, Options{})
		ctrl.manual = true
		ctrl.hook = func(env cc.Env, r rec) {
			if r.cb != cbEstablished {
				return
			}
			env.Pace(5, 5, 90*sim.Millisecond)
			got := fmt.Sprint(ctrl.log)
			want := fmt.Sprint([]rec{{cb: cbEstablished, now: r.now},
				{cb: cbTimer, now: r.now, timer: cc.TimerPaceDone}})
			if got != want {
				t.Errorf("callbacks when Pace returned: %s, want %s", got, want)
			}
		}
		conn.Start(0)
		w.sched.RunUntil(sim.Time(sim.Second))
		conn.Abort()
		if conn.Stats.DataPktsSent != 0 || ctrl.count(cbTimer) != 1 {
			t.Fatalf("%d data packets, %d timer callbacks; want 0 and 1", conn.Stats.DataPktsSent, ctrl.count(cbTimer))
		}
	})

	// Probe feedback is an ACK event that changes no scoreboard state.
	t.Run("probe-feedback", func(t *testing.T) {
		w := newWorld(t, cleanPath())
		conn, ctrl := dial(t, w, 100_000, Options{})
		ctrl.manual = true
		ctrl.hook = func(env cc.Env, r rec) {
			if r.cb == cbEstablished {
				env.SendProbe(7, 500, r.now)
			}
		}
		conn.Start(0)
		w.sched.RunUntil(sim.Time(sim.Second))
		conn.Abort()
		var acks []cc.AckEvent
		for _, r := range ctrl.log {
			if r.cb == cbAck {
				acks = append(acks, r.ack)
			}
		}
		if len(acks) != 1 || acks[0].OWD <= 0 ||
			acks[0] != (cc.AckEvent{Duplicate: true, Probe: true, Seq: 7, OWD: acks[0].OWD}) {
			t.Fatalf("probe feedback arrived as %+v", acks)
		}
		if sc := conn.Score; sc.CumAck() != 0 || sc.HighSent() != -1 || sc.SackedAboveCum() != 0 || conn.Stats.DataPktsSent != 0 {
			t.Fatalf("probe changed the scoreboard: cum=%d high=%d sacked=%d data=%d",
				sc.CumAck(), sc.HighSent(), sc.SackedAboveCum(), conn.Stats.DataPktsSent)
		}
	})
}
