package transport

import (
	"fmt"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
)

type connState uint8

const (
	stateIdle connState = iota
	stateSynSent
	stateEstablished
	stateDone
	// stateAborted is the terminal failure state: the flow gave up
	// (handshake cap, retransmission budget, deadline) or was torn down
	// externally. Like stateDone it releases every resource the flow
	// held — timers, endpoint registrations, receiver state — so an
	// aborted flow leaves the scheduler drainable.
	stateAborted
)

// Conn is one simulated connection: a sender endpoint on the source
// stack, a receiver endpoint on the destination stack, the shared flow
// bookkeeping, and the scheme's congestion controller. The Conn owns
// everything scheme-independent (handshake, scoreboard, RTT/RTO,
// completion detection, pacing, timers) and is the cc.Env its controller
// observes and acts through: it calls the controller at the decision
// points every scheme differs on, and the controller sends from those
// callbacks (DESIGN.md §10). Create with NewConn, then Start.
type Conn struct {
	ID   netem.FlowID
	Opts Options

	net   *netem.Network
	sched *sim.Scheduler
	src   *Stack // sender host
	dst   *Stack // receiver host

	ctrl cc.Controller
	done cc.DoneHook // non-nil iff the controller has terminal work

	flowBytes int
	numSegs   int32

	Stats *FlowStats
	Score *Scoreboard
	RTT   RTTEstimator

	state         connState
	fcwSegs       int32
	sentAt        []sim.Time
	rtoTimer      sim.Timer
	rtoBackoff    int
	synTimer      sim.Timer
	synBackoff    int
	deadlineTimer sim.Timer

	// timers holds the controller's timers by kind, pacer its one paced
	// schedule (Pace). Both are armed closure-free — the kind rides in
	// the callback (timerFire), the Conn in the argument — so a timer
	// re-armed on every ACK (PTO) or every packet (PCP's tick) and a
	// paced run allocate nothing.
	timers [cc.NumTimerKinds]sim.Timer
	pacer  pacer

	onComplete func(*Conn)
	recv       *receiver
	recvLogic  ReceiverLogic
	val        AckValidator

	// OnDeliver, if set, is invoked at the receiver for every *new*
	// data segment (duplicates excluded) with its payload size. The
	// throughput-timeline experiments use it; it may be set any time
	// before the first data arrives.
	OnDeliver func(payloadBytes int, now sim.Time)
}

var _ cc.Env = (*Conn)(nil)

// sender wraps the Conn for stack registration so the sender- and
// receiver-side handlers can be registered under the same flow ID on
// different stacks.
type sender struct{ c *Conn }

func (s sender) handlePacket(pkt *netem.Packet, now sim.Time) { s.c.handleSenderPacket(pkt, now) }

// NewConn wires a connection from src to dst carrying flowBytes, run by
// the controller mk builds. onComplete (optional) fires when the sender
// learns the whole flow is acknowledged.
func NewConn(id netem.FlowID, src, dst *Stack, flowBytes int, opts Options,
	mk func() cc.Controller, onComplete func(*Conn)) *Conn {
	if flowBytes <= 0 {
		panic("transport: flow must carry at least one byte")
	}
	if src.Net != dst.Net {
		panic("transport: endpoints on different networks")
	}
	ctrl := mk()
	if ctrl == nil {
		panic("transport: controller factory returned nil")
	}
	opts.applyDefaults()
	n := int32(netem.SegmentsFor(flowBytes))
	c := &Conn{
		ID: id, Opts: opts,
		net: src.Net, sched: src.Net.Scheduler(),
		src: src, dst: dst,
		ctrl:      ctrl,
		flowBytes: flowBytes, numSegs: n,
		Stats: &FlowStats{ID: id, FlowBytes: flowBytes, NumSegs: n},
		Score: NewScoreboard(n),
		RTT:   NewRTTEstimator(initialRTO, minRTO, opts.MaxRTO),

		sentAt:     make([]sim.Time, n),
		onComplete: onComplete,
	}
	c.done, _ = ctrl.(cc.DoneHook)
	c.val.Init(id)
	c.recv = newReceiver(c)
	return c
}

// Start begins the connection: endpoints register and the SYN goes out.
// With Options.ZeroRTT the sender skips the handshake wait entirely and
// transmits immediately against the hinted RTT, as a TCP Fast Open-style
// setup would after a previous connection.
func (c *Conn) Start(now sim.Time) {
	if c.state == stateDone || c.state == stateAborted {
		return // torn down before launch (e.g. horizon passed)
	}
	if c.state != stateIdle {
		panic("transport: Start called twice")
	}
	c.src.register(c.ID, sender{c})
	c.dst.register(c.ID, c.recv)
	c.Stats.Start = now
	if c.Opts.FlowDeadline > 0 {
		c.deadlineTimer = c.sched.AfterFunc(c.Opts.FlowDeadline, connDeadline, c)
	}
	if c.Opts.ZeroRTT {
		hint := c.Opts.RTTHint
		if hint <= 0 {
			hint = 60 * sim.Millisecond
		}
		c.state = stateEstablished
		c.Stats.Established = now
		c.Stats.HandshakeRTT = hint
		c.RTT.Sample(hint)
		c.fcwSegs = c.Opts.WindowSegments()
		c.ctrl.OnEstablished(c, now)
		return
	}
	c.state = stateSynSent
	c.sendSYN(now)
}

func (c *Conn) sendSYN(now sim.Time) {
	c.sendControl(netem.KindSYN, c.src, c.dst, nil, now)
	rto := c.RTT.RTO(c.synBackoff)
	c.synTimer = c.sched.AfterFunc(rto, connSynTimeout, c)
}

// connSynTimeout retransmits a lost SYN with backoff, giving up with
// AbortHandshakeTimeout once Options.MaxSynRetx retransmissions have
// gone unanswered.
func connSynTimeout(t sim.Time, arg any) {
	c := arg.(*Conn)
	if c.state != stateSynSent {
		return
	}
	if c.Opts.MaxSynRetx > 0 && c.synBackoff >= c.Opts.MaxSynRetx {
		c.abortWith(AbortHandshakeTimeout, t)
		return
	}
	c.Stats.HandshakeRetx++
	c.Stats.LossSeen = true
	c.synBackoff++
	c.sendSYN(t)
}

// connDeadline fires when Options.FlowDeadline elapses before the
// sender learns of completion.
func connDeadline(t sim.Time, arg any) {
	arg.(*Conn).abortWith(AbortDeadlineExceeded, t)
}

// sendControl emits a SYN/SYNACK-style packet from one stack to another.
func (c *Conn) sendControl(kind netem.PacketKind, from, to *Stack, mutate func(*netem.Packet), now sim.Time) {
	pkt := c.net.NewPacket()
	pkt.Kind, pkt.Flow = kind, c.ID
	pkt.Src, pkt.Dst = from.Node.ID, to.Node.ID
	pkt.Size, pkt.Echo, pkt.AckedSeq = netem.ControlSize, now, -1
	if mutate != nil {
		mutate(pkt)
	}
	c.net.Inject(pkt, now)
}

func (c *Conn) handleSenderPacket(pkt *netem.Packet, now sim.Time) {
	switch pkt.Kind {
	case netem.KindSYNACK:
		if c.state != stateSynSent {
			return // duplicate SYNACK after establishment
		}
		c.state = stateEstablished
		c.Stats.Established = now
		// The handshake RTT sample the aggressive schemes pace
		// against is measured from our own SYN emission.
		c.Stats.HandshakeRTT = now.Sub(c.Stats.Start)
		if c.Stats.HandshakeRetx == 0 {
			c.RTT.Sample(c.Stats.HandshakeRTT)
		}
		c.synTimer.Stop()
		if pkt.Window > 0 {
			c.fcwSegs = int32(pkt.Window / netem.SegmentPayload)
			if c.fcwSegs < 1 {
				c.fcwSegs = 1
			}
		} else {
			c.fcwSegs = c.Opts.WindowSegments()
		}
		c.ctrl.OnEstablished(c, now)

	case netem.KindAck:
		if c.state != stateEstablished {
			return
		}
		c.processAck(pkt, now)

	case netem.KindProbeAck:
		if c.state != stateEstablished {
			return
		}
		// Probe feedback is protocol-specific (PCP); surface it as an
		// ACK with no scoreboard change.
		c.ctrl.OnAck(c, cc.AckEvent{Duplicate: true, Probe: true, Seq: pkt.Seq, OWD: pkt.OWD}, now)
	}
}

func (c *Conn) processAck(pkt *netem.Packet, now sim.Time) {
	validate := c.Opts.AckValidation != AckValidationOff
	if validate {
		if class := c.val.Check(c.Score, pkt, c.Stats.DataPktsSent); class != MisbehaviorNone {
			c.noteMisbehavior(class, now)
			return
		}
	}
	up := c.Score.Update(pkt)
	if validate {
		c.val.Commit(c.Score)
	}

	// Karn's rule: sample RTT only from segments never retransmitted.
	if seq := pkt.AckedSeq; seq >= 0 && seq < c.numSegs &&
		c.Score.RetxCount(seq) == 0 && c.sentAt[seq] > 0 {
		c.RTT.Sample(now.Sub(c.sentAt[seq]))
	}

	if up.NewCumAcked > 0 {
		c.rtoBackoff = 0
		if c.Score.AllAcked() {
			c.finish(now)
			return
		}
		c.restartRTO(now)
	}
	c.ctrl.OnAck(c, cc.AckEvent{NewCumAcked: up.NewCumAcked, NewSacked: up.NewSacked, Duplicate: up.Duplicate}, now)
}

// noteMisbehavior records a flagged ACK and applies the configured
// policy: Clamp drops the ACK and carries on, Abort tears the flow
// down.
func (c *Conn) noteMisbehavior(class PeerMisbehavior, now sim.Time) {
	c.Stats.Misbehavior[class]++
	if c.Stats.FirstMisbehavior == MisbehaviorNone {
		c.Stats.FirstMisbehavior = class
	}
	if c.Opts.AckValidation == AckValidationAbort {
		c.abortWith(AbortPeerMisbehavior, now)
	}
}

// SegmentSize returns the wire size of segment seq (the final segment of
// a flow may be short).
func (c *Conn) SegmentSize(seq int32) int {
	if seq == c.numSegs-1 {
		last := c.flowBytes - int(c.numSegs-1)*netem.SegmentPayload
		return last + netem.DataHeaderBytes
	}
	return netem.SegmentSize
}

// SendSegment transmits one data segment. retransmit marks any copy after
// the first; proactive distinguishes loss-signal-free copies (ROPR,
// Proactive TCP) from reactive retransmissions so the "normal
// retransmission" metric matches the paper's.
func (c *Conn) SendSegment(seq int32, retransmit, proactive bool, now sim.Time) {
	if c.state != stateEstablished {
		return
	}
	if seq < 0 || seq >= c.numSegs {
		panic(fmt.Sprintf("transport: segment %d out of range [0,%d)", seq, c.numSegs))
	}
	pkt := c.net.NewPacket()
	pkt.Kind, pkt.Flow = netem.KindData, c.ID
	pkt.Src, pkt.Dst = c.src.Node.ID, c.dst.Node.ID
	pkt.Seq, pkt.Size = seq, c.SegmentSize(seq)
	pkt.Retransmit, pkt.Proactive = retransmit, proactive
	pkt.Echo, pkt.AckedSeq = now, -1
	pkt.PayloadSum = PayloadSum(c.ID, seq, pkt.Size)
	pkt.Nonce = c.val.SegNonce(seq)
	if !retransmit && c.sentAt[seq] == 0 {
		c.sentAt[seq] = now
		if now == 0 {
			c.sentAt[seq] = 1 // keep "unsent" sentinel distinct at t=0
		}
	}
	c.Score.NoteSend(seq, retransmit)
	c.Stats.DataPktsSent++
	if retransmit {
		if proactive {
			c.Stats.ProactiveRetx++
		} else {
			c.Stats.NormalRetx++
			c.Stats.LossSeen = true
		}
	}
	c.net.Inject(pkt, now)
	if !c.rtoTimer.Pending() {
		c.restartRTO(now)
	}
	// Budget check last, after the scoreboard and stats recorded the
	// send: a protocol loop that drives several retransmissions from one
	// event keeps observing NoteSend-advanced state for the copies that
	// did go out, and the abort lands between sends, where every
	// controller checks Finished.
	if retransmit && c.Opts.MaxRetx > 0 &&
		c.Stats.NormalRetx+c.Stats.ProactiveRetx > int64(c.Opts.MaxRetx) {
		c.abortWith(AbortRetxBudgetExhausted, now)
	}
}

// WindowLimit returns the exclusive upper bound on sendable sequence
// numbers imposed by the receiver's advertised flow-control window.
func (c *Conn) WindowLimit() int32 {
	lim := c.Score.CumAck() + c.fcwSegs
	if lim > c.numSegs {
		lim = c.numSegs
	}
	return lim
}

// FcwSegs returns the advertised flow-control window in segments.
func (c *Conn) FcwSegs() int32 { return c.fcwSegs }

// RTOBackoff returns the current exponential-backoff exponent of the
// retransmission timer (0 after any cumulative-ACK progress). Exposed
// for the property tests in internal/ptest.
func (c *Conn) RTOBackoff() int { return c.rtoBackoff }

// restartRTO (re)arms the retransmission timer with the current backoff.
// The timer is scheduled closure-free: arming happens on every data send
// and every cumulative ACK, which would otherwise allocate a bound
// method value per call.
func (c *Conn) restartRTO(now sim.Time) {
	c.rtoTimer.Stop()
	rto := c.RTT.RTO(c.rtoBackoff)
	c.rtoTimer = c.sched.AfterFunc(rto, connFireRTO, c)
}

func connFireRTO(now sim.Time, arg any) { arg.(*Conn).fireRTO(now) }

func (c *Conn) fireRTO(now sim.Time) {
	if c.state != stateEstablished || c.Score.AllAcked() {
		return
	}
	c.Stats.Timeouts++
	c.Stats.LossSeen = true
	c.rtoBackoff++
	if c.Opts.MaxTimeouts >= 0 && c.rtoBackoff > c.Opts.MaxTimeouts {
		// RFC 1122 R2: give up on a connection that has made no
		// progress across many successive timeouts.
		c.abortWith(AbortRetxBudgetExhausted, now)
		return
	}
	c.restartRTO(now)
	c.ctrl.OnLoss(c, now)
}

func (c *Conn) finish(now sim.Time) {
	if c.state == stateDone {
		return
	}
	c.state = stateDone
	c.Stats.SenderDone = now
	c.src.unregister(c.ID)
	c.dst.unregister(c.ID)
	c.release(now)
	if c.onComplete != nil {
		c.onComplete(c)
	}
}

// abortWith moves the connection to the terminal Aborted state and
// releases everything it holds: the receiver's delayed-ACK state is
// reaped, both endpoint registrations are dropped, and release cancels
// every timer. After abortWith returns, the flow contributes no further
// events and the scheduler can drain.
func (c *Conn) abortWith(reason AbortReason, now sim.Time) {
	if c.state == stateDone || c.state == stateAborted {
		return
	}
	prev := c.state
	c.state = stateAborted
	c.Stats.Aborted = true
	c.Stats.AbortReason = reason
	c.Stats.AbortedAt = now
	c.recv.reap()
	if prev == stateSynSent || prev == stateEstablished {
		c.src.unregister(c.ID)
		c.dst.unregister(c.ID)
	}
	c.release(now)
}

// release runs once, on entry to a terminal state: it cancels everything
// the flow has scheduled — the lifecycle timers, the paced schedule and
// every controller timer — and only then runs the controller's terminal
// hook, so controllers never manage timer lifetime at teardown.
func (c *Conn) release(now sim.Time) {
	c.rtoTimer.Stop()
	c.synTimer.Stop()
	c.deadlineTimer.Stop()
	c.pacer.tick.Stop()
	for i := range c.timers {
		c.timers[i].Stop()
	}
	if c.done != nil {
		c.done.OnDone(c, now)
	}
}

// Abort tears the connection down without completion from outside the
// protocol (simulation horizon passed, harness shutdown).
func (c *Conn) Abort() {
	c.abortWith(AbortExternal, c.sched.Now())
}

// Finished reports whether the sender reached a terminal state —
// completed or aborted. Protocol send loops must check it between
// sends: a retransmission budget can abort the flow mid-burst, after
// which further SendSegment calls are no-ops.
func (c *Conn) Finished() bool { return c.state == stateDone || c.state == stateAborted }

// Aborted reports whether the connection ended in the Aborted state.
func (c *Conn) Aborted() bool { return c.state == stateAborted }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Receiver replacement -------------------------------------------------

// ReceiverLogic replaces the Conn's built-in honest receiver endpoint.
// It exists for the adversarial receivers in internal/ptest: the
// implementation sees every packet the receiver-side stack delivers for
// the flow and crafts its own replies with EmitFromReceiver. OnReap
// runs when the flow reaches a terminal state so the logic can cancel
// any private timers.
type ReceiverLogic interface {
	OnReceiverPacket(c *Conn, pkt *netem.Packet, now sim.Time)
	OnReceiverReap(c *Conn)
}

// SetReceiverLogic installs a replacement receiver endpoint. It must be
// called before Start.
func (c *Conn) SetReceiverLogic(rl ReceiverLogic) {
	if c.state != stateIdle {
		panic("transport: SetReceiverLogic after Start")
	}
	c.recvLogic = rl
}

// EmitFromReceiver injects one receiver→sender packet built by mutate,
// which receives a pooled packet pre-addressed from the receiver stack
// to the sender with AckedSeq=-1 and Echo=now; mutate sets the kind and
// whatever fields the reply needs. No-op once the flow is terminal
// (the sender endpoint is unregistered and the packet would only churn
// the drain).
func (c *Conn) EmitFromReceiver(mutate func(*netem.Packet), now sim.Time) {
	if c.Finished() {
		return
	}
	pkt := c.net.NewPacket()
	pkt.Flow = c.ID
	pkt.Src, pkt.Dst = c.dst.Node.ID, c.src.Node.ID
	pkt.Size, pkt.Echo, pkt.AckedSeq = netem.AckSize, now, -1
	mutate(pkt)
	c.net.Inject(pkt, now)
}

// The controller's Env ---------------------------------------------------
//
// Beside SendSegment, WindowLimit, FcwSegs, Finished and Established
// above.

// Sack returns the connection's scoreboard.
func (c *Conn) Sack() cc.Sack { return c.Score }

// NumSegs returns the flow length in segments.
func (c *Conn) NumSegs() int32 { return c.numSegs }

// FlowBytes returns the flow length in bytes.
func (c *Conn) FlowBytes() int { return c.flowBytes }

// DupThresh returns the SACK loss-inference threshold.
func (c *Conn) DupThresh() int { return dupThresh }

// HandshakeRTT returns the SYN→SYNACK measurement.
func (c *Conn) HandshakeRTT() sim.Duration { return c.Stats.HandshakeRTT }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Duration { return c.RTT.SRTT() }

// Completed reports whether the receiver held every byte.
func (c *Conn) Completed() bool { return c.Stats.Completed }

// EstablishedAt returns when the handshake completed.
func (c *Conn) EstablishedAt() sim.Time { return c.Stats.Established }

// FinishedAt returns when the sender learned of completion.
func (c *Conn) FinishedAt() sim.Time { return c.Stats.SenderDone }

// Path identifies the flow's endpoints.
func (c *Conn) Path() (src, dst netem.NodeID) { return c.src.Node.ID, c.dst.Node.ID }

// SendProbe emits one bandwidth-probe packet (PCP's probe trains).
func (c *Conn) SendProbe(seq int32, size int, now sim.Time) {
	if c.state != stateEstablished {
		return
	}
	pkt := c.net.NewPacket()
	pkt.Kind, pkt.Flow = netem.KindProbe, c.ID
	pkt.Src, pkt.Dst = c.src.Node.ID, c.dst.Node.ID
	pkt.Seq, pkt.Size = seq, size
	pkt.Echo, pkt.AckedSeq = now, -1
	c.net.Inject(pkt, now)
}

// timerFire[k] is the scheduler callback of controller timer k.
var timerFire = func() (fire [cc.NumTimerKinds]sim.EventFunc) {
	for k := range fire {
		fire[k] = func(now sim.Time, arg any) { arg.(*Conn).fireTimer(cc.TimerKind(k), now) }
	}
	return fire
}()

// fireTimer delivers a controller timer expiry, unless the flow reached
// a terminal state first.
func (c *Conn) fireTimer(kind cc.TimerKind, now sim.Time) {
	if c.Finished() {
		return
	}
	c.ctrl.OnTimer(c, kind, now)
}

// ArmTimer (re)arms a controller timer.
func (c *Conn) ArmTimer(kind cc.TimerKind, d sim.Duration) {
	c.timers[kind].Stop()
	c.timers[kind] = c.sched.AfterFunc(d, timerFire[kind], c)
}

// StopTimer cancels a controller timer.
func (c *Conn) StopTimer(kind cc.TimerKind) { c.timers[kind].Stop() }

// pacer is a run of equally spaced first transmissions: the cursor, the
// end of the range, the gap and the pending tick.
type pacer struct {
	next, hi int32
	interval sim.Duration
	tick     sim.Timer
}

// Pace paces first transmissions of segments [lo,hi) evenly across
// total, the first one now, replacing any schedule still running;
// TimerPaceDone follows the last send, at once if the range is empty.
func (c *Conn) Pace(lo, hi int32, total sim.Duration) {
	c.pacer.tick.Stop()
	c.pacer = pacer{next: lo, hi: hi}
	n := hi - lo
	if n <= 0 {
		c.fireTimer(cc.TimerPaceDone, c.sched.Now())
		return
	}
	if n > 1 {
		c.pacer.interval = total / sim.Duration(n)
	}
	paceTick(c.sched.Now(), c)
}

// paceTick sends the cursor segment and schedules the next tick.
func paceTick(now sim.Time, arg any) {
	c := arg.(*Conn)
	if c.Finished() {
		return
	}
	p := &c.pacer
	seq := p.next
	p.next++
	c.SendSegment(seq, false, false, now)
	if p.next < p.hi {
		p.tick = c.sched.AfterFunc(p.interval, paceTick, c)
	} else {
		c.fireTimer(cc.TimerPaceDone, now)
	}
}
