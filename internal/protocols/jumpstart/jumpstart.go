// Package jumpstart implements JumpStart [25] as characterised in the
// paper (§2.2): the sender paces the entire flow (up to the flow-control
// window) across the first RTT after the handshake, then "falls back to
// normal TCP with bursty and reactive-only retransmission" — every loss
// inferred from SACK state is burst out at line rate, and a timeout
// bursts every outstanding hole. That bursty recovery is precisely the
// behaviour the paper identifies as JumpStart's safety weakness.
package jumpstart

import (
	"halfback/internal/cc"
	"halfback/internal/sim"
)

// jumpStartState is the sender's decision state.
type jumpStartState struct {
	PacingDone  bool
	AckedDuring int32 // segments acknowledged while pacing (seeds cwnd)

	// Post-pacing congestion state for flows longer than the initial
	// window: plain congestion avoidance, per the fallback-to-TCP
	// behaviour.
	Cwnd       float64
	RetxBudget int
	// RTORecovery is set after a timeout: the TCP that JumpStart falls
	// back to recovers in slow start (cwnd from 1, ACK-clocked), not
	// with line-rate bursts.
	RTORecovery bool
}

// Logic is the JumpStart controller.
type Logic struct {
	st jumpStartState
}

// New returns the Controller factory.
func New() func() cc.Controller {
	return func() cc.Controller {
		return &Logic{st: jumpStartState{RetxBudget: 1}}
	}
}

// PacingComplete reports whether the initial paced RTT has finished.
func (l *Logic) PacingComplete() bool { return l.st.PacingDone }

func (l *Logic) OnEstablished(env cc.Env, now sim.Time) {
	// Pace min(flow, fcw) across the handshake RTT.
	hi := env.NumSegs()
	if w := env.FcwSegs(); hi > w {
		hi = w
	}
	rtt := env.HandshakeRTT()
	if rtt <= 0 {
		rtt = 1 * sim.Millisecond
	}
	env.Pace(0, hi, rtt)
}

// OnTimer receives the pacing-complete sentinel and seeds the fallback
// window from the ACKs that arrived while pacing.
func (l *Logic) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {
	if kind != cc.TimerPaceDone {
		return
	}
	l.st.PacingDone = true
	l.st.Cwnd = float64(l.st.AckedDuring)
	if l.st.Cwnd < 2 {
		l.st.Cwnd = 2
	}
}

func (l *Logic) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	if !l.st.PacingDone {
		l.st.AckedDuring += ev.NewCumAcked + ev.NewSacked
	} else if ev.NewCumAcked > 0 {
		if l.st.RTORecovery {
			l.st.Cwnd += float64(ev.NewCumAcked) // slow start after timeout
		} else {
			l.st.Cwnd += float64(ev.NewCumAcked) / max(l.st.Cwnd, 1) // congestion avoidance
		}
	}

	if l.st.RTORecovery {
		// Post-timeout: normal TCP semantics — retransmit holes in
		// slow start, clocked by returning ACKs and bounded by cwnd.
		l.slowStartRecovery(env, now)
		if len(env.Sack().Holes()) == 0 {
			l.st.RTORecovery = false
		}
	} else {
		// Bursty reactive recovery: every segment newly deemed lost is
		// burst out at line rate, all at once, with no pacing or pipe
		// limit — the aggressive fast-retransmit behaviour the paper
		// criticises. A retransmission that is lost again can only be
		// recovered by the retransmission timeout ("the sender needs
		// to wait until timeout when the retransmitted packets are
		// lost", §4.2.3).
		l.burstRetransmit(env, now)
	}

	// Window-limited new data for flows longer than the paced range.
	l.pumpNew(env, now)
}

// slowStartRecovery retransmits marked holes while the pipe has room
// under the (re-growing) window.
func (l *Logic) slowStartRecovery(env cc.Env, now sim.Time) {
	sc := env.Sack()
	guard := 0
	for float64(sc.Pipe(env.DupThresh())) < l.st.Cwnd {
		guard++
		if guard > 4096 {
			panic("jumpstart: slow-start recovery did not converge")
		}
		// The retransmission budget can abort mid-loop, after which
		// SendSegment no-ops and the hole never clears.
		if env.Finished() {
			return
		}
		lost := sc.NextLost(sc.CumAck(), env.DupThresh(), l.st.RetxBudget)
		if lost < 0 {
			return
		}
		env.SendSegment(lost, true, false, now)
	}
}

// OnLoss applies the fallback TCP's timeout semantics: all outstanding
// data is presumed lost, the window collapses to one segment, and the
// first hole is retransmitted; the rest follow in slow start. The damage
// a timeout does to JumpStart is therefore the *latency* of the 1 s RTO
// itself plus the slow rebuild — which its loss-prone line-rate bursts
// make it pay far more often than the paced schemes.
func (l *Logic) OnLoss(env cc.Env, now sim.Time) {
	l.st.RetxBudget++
	l.st.RTORecovery = true
	l.st.Cwnd = 1
	sc := env.Sack()
	sc.MarkOutstandingLost()
	if seq := sc.NextLost(sc.CumAck(), env.DupThresh(), l.st.RetxBudget); seq >= 0 {
		env.SendSegment(seq, true, false, now)
	}
}

// Decision reports pacing until the paced RTT completes, then the
// fallback window.
func (l *Logic) Decision() cc.Decision {
	if !l.st.PacingDone {
		return cc.Decision{Pacing: true}
	}
	return cc.Decision{CwndSegs: l.st.Cwnd}
}

func (l *Logic) burstRetransmit(env cc.Env, now sim.Time) {
	sc := env.Sack()
	guard := 0
	for {
		guard++
		if guard > 1<<16 {
			panic("jumpstart: burst retransmit did not converge")
		}
		// See slowStartRecovery: a budget abort mid-burst must stop
		// the burst, not spin on the un-advancing scoreboard.
		if env.Finished() {
			return
		}
		lost := sc.NextLost(sc.CumAck(), env.DupThresh(), l.st.RetxBudget)
		if lost < 0 {
			return
		}
		env.SendSegment(lost, true, false, now)
	}
}

// pumpNew sends new data beyond the paced range once pacing finished,
// clocked by the congestion window like the TCP fallback.
func (l *Logic) pumpNew(env cc.Env, now sim.Time) {
	if !l.st.PacingDone || env.Finished() {
		return
	}
	sc := env.Sack()
	for {
		if env.Finished() {
			return
		}
		next := sc.HighSent() + 1
		if next >= env.NumSegs() || next >= env.WindowLimit() {
			return
		}
		inFlight := float64(next - sc.CumAck() - sc.SackedAboveCum())
		if inFlight >= l.st.Cwnd {
			return
		}
		env.SendSegment(next, false, false, now)
	}
}
