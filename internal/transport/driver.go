package transport

import (
	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// Driver is the single generic loop that runs any cc.Controller on a
// Conn: it implements the transport's Logic interface on one side and
// the controller's Env interface on the other, translating transport
// events (establishment, ACKs, probe feedback, RTO) into controller
// callbacks and controller decisions (sends, pacing, timers) into Conn
// operations. Every scheme in internal/scheme runs through this one
// loop; no scheme touches the Conn directly.
type Driver struct {
	c    *Conn
	ctrl cc.Controller
	pump cc.Pumper   // non-nil iff the controller wants send offers
	done cc.DoneHook // non-nil iff the controller has terminal work

	pacer *Pacer

	// timers holds one cell per TimerKind. Cells are self-describing
	// (driver + kind) so arming is closure-free: the scheduler calls
	// driverTimerFire with the cell pointer, which costs no allocation
	// per arm — important for timers re-armed on every ACK (PTO) or
	// every packet (PCP's tick).
	timers [cc.NumTimerKinds]driverTimer
}

type driverTimer struct {
	d    *Driver
	kind cc.TimerKind
	t    sim.Timer
}

// Drive adapts a controller factory into the Logic factory the Conn
// constructor takes. This is the only glue a scheme registry entry
// needs.
func Drive(mk func() cc.Controller) func(*Conn) Logic {
	return func(c *Conn) Logic { return NewDriver(c, mk()) }
}

// NewDriver wires a controller to a connection.
func NewDriver(c *Conn, ctrl cc.Controller) *Driver {
	if ctrl == nil {
		panic("transport: Drive given a nil controller")
	}
	d := &Driver{c: c, ctrl: ctrl}
	d.pump, _ = ctrl.(cc.Pumper)
	d.done, _ = ctrl.(cc.DoneHook)
	for i := range d.timers {
		d.timers[i].d = d
		d.timers[i].kind = cc.TimerKind(i)
	}
	return d
}

// Controller exposes the controller for tests and tracing.
func (d *Driver) Controller() cc.Controller { return d.ctrl }

// --- Logic (transport events in) --------------------------------------

// OnEstablished forwards establishment and offers a send opportunity.
func (d *Driver) OnEstablished(now sim.Time) {
	d.ctrl.OnEstablished(d, now)
	d.offer(now)
}

// OnAck translates an acknowledgement (or PCP probe feedback, which the
// Conn surfaces as a scoreboard-neutral ACK) into an AckEvent.
func (d *Driver) OnAck(pkt *netem.Packet, up AckUpdate, now sim.Time) {
	var ev cc.AckEvent
	if pkt.Kind == netem.KindProbeAck {
		ev = cc.AckEvent{Duplicate: true, Probe: true, Seq: pkt.Seq, OWD: pkt.OWD}
	} else {
		ev = cc.AckEvent{NewCumAcked: up.NewCumAcked, NewSacked: up.NewSacked, Duplicate: up.Duplicate}
	}
	d.ctrl.OnAck(d, ev, now)
	d.offer(now)
}

// OnRTO surfaces the retransmission timeout as a loss event. The Conn
// has already counted the timeout and applied backoff.
func (d *Driver) OnRTO(now sim.Time) {
	d.ctrl.OnLoss(d, cc.LossEvent{Kind: cc.LossTimeout}, now)
	d.offer(now)
}

// OnDone releases everything the controller holds — the pacer and every
// armed timer — then runs the controller's own terminal hook (cache or
// history write-back). Controllers never manage timer lifetime at
// teardown themselves.
func (d *Driver) OnDone(now sim.Time) {
	if d.pacer != nil {
		d.pacer.Stop()
	}
	for i := range d.timers {
		d.timers[i].t.Stop()
	}
	if d.done != nil {
		d.done.OnDone(d, now)
	}
}

// offer gives a Pumper controller a send opportunity after every event,
// with the current flow-control budget for never-sent segments.
func (d *Driver) offer(now sim.Time) {
	if d.pump == nil || d.c.Finished() || !d.c.Established() {
		return
	}
	budget := d.c.WindowLimit() - (d.c.Score.HighSent() + 1)
	if budget < 0 {
		budget = 0
	}
	d.pump.OnSend(d, budget, now)
}

// --- Env (controller decisions out) -----------------------------------

// Sack returns the connection's scoreboard.
func (d *Driver) Sack() cc.Sack { return d.c.Score }

// NumSegs returns the flow length in segments.
func (d *Driver) NumSegs() int32 { return d.c.NumSegs }

// FlowBytes returns the flow length in bytes.
func (d *Driver) FlowBytes() int { return d.c.FlowBytes }

// FcwSegs returns the advertised flow-control window in segments.
func (d *Driver) FcwSegs() int32 { return d.c.FcwSegs() }

// WindowLimit returns the flow-control bound on sendable sequences.
func (d *Driver) WindowLimit() int32 { return d.c.WindowLimit() }

// DupThresh returns the SACK loss-inference threshold.
func (d *Driver) DupThresh() int { return dupThresh }

// HandshakeRTT returns the SYN→SYNACK measurement.
func (d *Driver) HandshakeRTT() sim.Duration { return d.c.Stats.HandshakeRTT }

// SRTT returns the smoothed RTT estimate.
func (d *Driver) SRTT() sim.Duration { return d.c.RTT.SRTT() }

// Finished reports whether the flow reached a terminal state.
func (d *Driver) Finished() bool { return d.c.Finished() }

// Established reports whether the handshake has completed.
func (d *Driver) Established() bool { return d.c.Established() }

// Completed reports whether the receiver held every byte.
func (d *Driver) Completed() bool { return d.c.Stats.Completed }

// EstablishedAt returns when the handshake completed.
func (d *Driver) EstablishedAt() sim.Time { return d.c.Stats.Established }

// FinishedAt returns when the sender learned of completion.
func (d *Driver) FinishedAt() sim.Time { return d.c.Stats.SenderDone }

// Path identifies the flow's endpoints.
func (d *Driver) Path() (src, dst netem.NodeID) { return d.c.SrcNode(), d.c.DstNode() }

// SendSegment transmits one data segment through the Conn.
func (d *Driver) SendSegment(seq int32, retransmit, proactive bool, now sim.Time) {
	d.c.SendSegment(seq, retransmit, proactive, now)
}

// SendProbe emits one bandwidth-probe packet (PCP's probe trains).
func (d *Driver) SendProbe(seq int32, size int, now sim.Time) {
	c := d.c
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

// Pace schedules paced first transmissions of [lo,hi) across total,
// replacing any previous schedule; completion is delivered to the
// controller as TimerPaceDone (synchronously if the range is empty,
// matching PaceRange's contract).
func (d *Driver) Pace(lo, hi int32, total sim.Duration) {
	if d.pacer != nil {
		d.pacer.Stop()
	}
	d.pacer = d.c.PaceRange(lo, hi, total, d.paceDone)
}

func (d *Driver) paceDone(now sim.Time) {
	d.ctrl.OnTimer(d, cc.TimerPaceDone, now)
	d.offer(now)
}

// ArmTimer (re)arms a controller timer, closure-free.
func (d *Driver) ArmTimer(kind cc.TimerKind, dur sim.Duration) {
	cell := &d.timers[kind]
	cell.t.Stop()
	cell.t = d.c.sched.AfterFunc(dur, driverTimerFire, cell)
}

// StopTimer cancels a controller timer.
func (d *Driver) StopTimer(kind cc.TimerKind) {
	d.timers[kind].t.Stop()
}

// StopRTO cancels the transport's retransmission timer.
func (d *Driver) StopRTO() { d.c.StopRTO() }

func driverTimerFire(now sim.Time, arg any) {
	cell := arg.(*driverTimer)
	d := cell.d
	if d.c.Finished() {
		return
	}
	d.ctrl.OnTimer(d, cell.kind, now)
	d.offer(now)
}
