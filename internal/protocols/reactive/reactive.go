// Package reactive implements Reactive TCP from "Reducing web latency:
// the virtue of gentle aggression" [18], as evaluated in the paper: TCP
// augmented with a probe timeout (PTO) that retransmits the last
// outstanding segment well before the retransmission timeout would fire,
// converting tail losses into SACK-recoverable ones.
package reactive

import (
	"halfback/internal/cc"
	"halfback/internal/protocols/tcp"
	"halfback/internal/sim"
)

// MinPTO is the probe-timeout floor (the TLP draft's 10 ms).
const MinPTO = 10 * sim.Millisecond

// maxProbe is how many probes one tail episode may send before
// yielding to the RTO.
const maxProbe = 2

// reactiveState is the probe layer's decision state. The wrapped Reno
// engine keeps its own.
type reactiveState struct {
	ProbesSent int64
	PTOAttempt int // consecutive probes without forward progress
}

// Logic is Reactive TCP: a wrapped Reno engine plus the tail probe.
type Logic struct {
	st   reactiveState
	reno *tcp.Reno
}

// New returns the Controller factory. icw is the initial congestion
// window (Reactive TCP keeps the paper's default of 2).
func New(icw int32) func() cc.Controller {
	return func() cc.Controller {
		return &Logic{reno: tcp.NewReno(tcp.Config{InitialWindow: icw})}
	}
}

// Probes reports how many tail probes this flow sent.
func (l *Logic) Probes() int64 { return l.st.ProbesSent }

func (l *Logic) OnEstablished(env cc.Env, now sim.Time) {
	l.reno.OnEstablished(env, now)
	l.armPTO(env, now, 0)
}

func (l *Logic) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	l.reno.OnAck(env, ev, now)
	if !ev.Duplicate {
		l.armPTO(env, now, 0) // forward progress resets the probe budget
	}
}

func (l *Logic) OnLoss(env cc.Env, now sim.Time) {
	env.StopTimer(cc.TimerPTO)
	l.reno.OnLoss(env, now)
	l.armPTO(env, now, 0)
}

// OnTimer fires the tail probe.
func (l *Logic) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {
	if kind != cc.TimerPTO {
		return
	}
	l.fireProbe(env, now, l.st.PTOAttempt)
}

// Decision reports the Reno engine's window.
func (l *Logic) Decision() cc.Decision { return l.reno.Decision() }

// armPTO schedules the tail probe: PTO = max(2·SRTT, MinPTO). attempt
// tracks consecutive probes without forward progress.
func (l *Logic) armPTO(env cc.Env, now sim.Time, attempt int) {
	env.StopTimer(cc.TimerPTO)
	if env.Finished() || attempt >= maxProbe {
		return
	}
	srtt := env.SRTT()
	if srtt <= 0 {
		srtt = 100 * sim.Millisecond
	}
	pto := 2 * srtt
	if pto < MinPTO {
		pto = MinPTO
	}
	l.st.PTOAttempt = attempt
	env.ArmTimer(cc.TimerPTO, pto)
}

func (l *Logic) fireProbe(env cc.Env, now sim.Time, attempt int) {
	if env.Finished() {
		return
	}
	sc := env.Sack()
	// Only probe a genuine tail: outstanding data with nothing new to
	// send (either flow exhausted or window-limited).
	seq := sc.HighestUnacked()
	if seq < 0 {
		return
	}
	l.st.ProbesSent++
	// The probe is a reactive retransmission — triggered by suspicion
	// of loss — so it counts as a normal retransmission, as in the
	// paper's accounting.
	env.SendSegment(seq, true, false, now)
	l.armPTO(env, now, attempt+1)
}
