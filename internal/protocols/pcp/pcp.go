// Package pcp implements PCP (Probe Control Protocol, Anderson et al.,
// NSDI 2006) as characterised in the paper (§2.2, §4.2.3): the sender
// emits short paced packet trains to probe for available bandwidth, sets
// its sending rate to the measured value, and — critically — refuses to
// ramp while the one-way queueing delay is increasing during a probe.
// Competing TCP flows keep the bottleneck queue growing, so PCP's probes
// keep failing and it ends up more conservative than the competition;
// probing also costs round trips before any data moves. Both effects are
// what the paper's Figs. 10, 12 and 14 show.
//
// This is a re-implementation from the protocol's published description
// (the paper used the authors' userspace code, which is not available);
// DESIGN.md records the substitution.
package pcp

import (
	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// Tunables for the probe process.
const (
	// ProbeTrainLen is the number of packets per probe train. It must
	// not exceed cc.MaxAuxTimers: each packet of a train is scheduled
	// on one auxiliary controller-timer slot.
	ProbeTrainLen = 5
	// ProbeSize is the wire size of one probe packet. PCP probes with
	// full-size packets: a train at the target rate must itself induce
	// queue growth when the rate exceeds the available bandwidth, and
	// only MTU-sized probes displace enough bytes to measure that.
	ProbeSize = netem.SegmentSize
	// MaxProbeRounds bounds the startup search; after this many
	// failures the sender proceeds at its floor rate rather than
	// probing forever.
	MaxProbeRounds = 6
)

// pcpState is the sender's decision state.
type pcpState struct {
	Rate      float64 // current verified-or-target rate, bytes/sec
	FloorRate float64
	Probing   bool
	ProbeBase int32 // Seq of the round's first probe packet
	ProbeSeq  int32 // next probe sequence number to allocate
	OWD       [ProbeTrainLen]sim.Duration
	Got       [ProbeTrainLen]bool
	GotCount  int

	ProbeSent [ProbeTrainLen]sim.Time

	Ticking bool

	RetxBudget int
	Failures   int64
	Rounds     int64

	// Loss-event bookkeeping for reorder tolerance: LossEventEnd is
	// HighSent at the last rate cut, so deemed-lost segments at or
	// below it belong to the already-reacted-to event and must not
	// halve the rate again (under reordering a segment can look lost
	// on every ACK for an entire round trip). ProbedRate is the last
	// probe-verified rate — the ceiling recovery may climb back to.
	LossEventEnd int32
	ProbedRate   float64
}

// Logic is the PCP controller.
type Logic struct {
	st pcpState
}

// New returns the Controller factory.
func New() func() cc.Controller {
	return func() cc.Controller {
		return &Logic{st: pcpState{RetxBudget: 1, LossEventEnd: -1}}
	}
}

// Rate returns the current sending rate in bytes/sec, for tests.
func (l *Logic) Rate() float64 { return l.st.Rate }

// ProbeRounds returns how many probe trains were sent.
func (l *Logic) ProbeRounds() int64 { return l.st.Rounds }

// ProbeFailures returns how many probe rounds detected rising delay.
func (l *Logic) ProbeFailures() int64 { return l.st.Failures }

func (l *Logic) OnEstablished(env cc.Env, now sim.Time) {
	rtt := env.HandshakeRTT()
	if rtt <= 0 {
		rtt = 100 * sim.Millisecond
	}
	// Optimistic first target: the whole flow (or window) in one RTT —
	// the same ceiling the pacing schemes use. The floor is one
	// segment per RTT, TCP's minimum pace.
	winBytes := int(env.FcwSegs()) * netem.SegmentPayload
	target := env.FlowBytes()
	if target > winBytes {
		target = winBytes
	}
	l.st.Rate = float64(target) / rtt.Seconds()
	l.st.FloorRate = float64(netem.SegmentSize) / rtt.Seconds()
	if l.st.Rate < l.st.FloorRate {
		l.st.Rate = l.st.FloorRate
	}
	l.startProbe(env, now)
}

// startProbe sends one paced probe train at the current target rate:
// packet i of the train fires from auxiliary timer slot i.
func (l *Logic) startProbe(env cc.Env, now sim.Time) {
	if env.Finished() {
		return
	}
	l.st.Probing = true
	l.st.Rounds++
	l.st.ProbeBase = l.st.ProbeSeq
	l.st.ProbeSeq += ProbeTrainLen
	l.st.GotCount = 0
	for i := range l.st.Got {
		l.st.Got[i] = false
	}
	interval := l.interval()
	for i := 0; i < ProbeTrainLen; i++ {
		env.ArmTimer(cc.TimerAux(i), sim.Duration(i)*interval)
	}
	// Probe verdict deadline: the train plus two RTTs of grace. A
	// train whose acks never arrive counts as a failure (loss is a
	// stronger congestion signal than delay).
	srtt := env.SRTT()
	if srtt <= 0 {
		srtt = 100 * sim.Millisecond
	}
	deadline := sim.Duration(ProbeTrainLen)*interval + 2*srtt
	env.ArmTimer(cc.TimerProbeDeadline, deadline)
}

// interval returns the packet spacing that emulates data at the current
// rate.
func (l *Logic) interval() sim.Duration {
	if l.st.Rate <= 0 {
		return sim.Second
	}
	return sim.Duration(float64(netem.SegmentSize) / l.st.Rate * float64(sim.Second))
}

func (l *Logic) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	if ev.Probe {
		l.onProbeAck(env, ev, now)
		return
	}
	// Data ACK: infer loss, halve once per loss event, recover toward
	// the probe-verified rate on loss-free progress, and keep the
	// paced stream ticking if there is more to send.
	sc := env.Sack()
	if lost := sc.NextLost(sc.CumAck(), env.DupThresh(), l.st.RetxBudget); lost >= 0 {
		if lost > l.st.LossEventEnd {
			l.st.Rate = max(l.st.Rate/2, l.st.FloorRate)
			l.st.LossEventEnd = sc.HighSent()
		}
	} else if ev.NewCumAcked > 0 && sc.CumAck() > l.st.LossEventEnd && l.st.Rate < l.st.ProbedRate {
		// The last loss event is fully behind us; climb back, never
		// beyond what a probe actually verified. The climb must be
		// fast enough to escape the floor-rate regime (one packet per
		// RTT, where every loss costs a full RTO) within a handful of
		// loss-free ACKs on chronically lossy paths.
		l.st.Rate = min(l.st.Rate*1.25, l.st.ProbedRate)
	}
	if !l.st.Ticking && !l.st.Probing {
		l.startTicking(env, now)
	}
}

func (l *Logic) onProbeAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	if !l.st.Probing {
		return
	}
	idx := ev.Seq - l.st.ProbeBase
	if idx < 0 || idx >= ProbeTrainLen || l.st.Got[idx] {
		return
	}
	l.st.Got[idx] = true
	l.st.OWD[idx] = ev.OWD
	l.st.GotCount++
	if l.st.GotCount == ProbeTrainLen {
		// Delay-trend test: a train that raised the one-way delay by
		// more than half a packet serialization time was above the
		// available bandwidth.
		trend := l.st.OWD[ProbeTrainLen-1] - l.st.OWD[0]
		threshold := l.interval() / 2
		if threshold > 500*sim.Microsecond {
			// PCP's delay test is fine-grained: a sustained rise of
			// even half a millisecond across a train means someone
			// else is filling the queue.
			threshold = 500 * sim.Microsecond
		}
		ok := trend <= threshold
		if ok {
			// Dispersion test (the heart of PCP's estimator): probe
			// arrival spacing stretches by exactly the cross traffic
			// serialized between probes, so the available bandwidth
			// is the probing rate scaled by sent/received spacing.
			sentSpan := l.st.ProbeSent[ProbeTrainLen-1].Sub(l.st.ProbeSent[0])
			recvSpan := sentSpan + (l.st.OWD[ProbeTrainLen-1] - l.st.OWD[0])
			first := l.st.ProbeSent[0].Add(l.st.OWD[0])
			last := l.st.ProbeSent[ProbeTrainLen-1].Add(l.st.OWD[ProbeTrainLen-1])
			if m := last.Sub(first); m > recvSpan {
				recvSpan = m
			}
			if recvSpan > sentSpan && sentSpan > 0 {
				l.st.Rate = max(l.st.Rate*float64(sentSpan)/float64(recvSpan), l.st.FloorRate)
			}
		}
		l.probeVerdict(env, ok, now)
	}
}

func (l *Logic) probeVerdict(env cc.Env, ok bool, now sim.Time) {
	env.StopTimer(cc.TimerProbeDeadline)
	l.st.Probing = false
	if ok || l.st.Rounds >= MaxProbeRounds {
		if !ok {
			l.st.Failures++
			l.st.Rate = max(l.st.Rate/2, l.st.FloorRate)
		}
		l.st.ProbedRate = l.st.Rate
		l.startTicking(env, now)
		return
	}
	l.st.Failures++
	l.st.Rate = max(l.st.Rate/2, l.st.FloorRate)
	// PCP pauses before re-probing, yielding to whatever is building
	// the queue.
	srtt := env.SRTT()
	if srtt <= 0 {
		srtt = 100 * sim.Millisecond
	}
	env.ArmTimer(cc.TimerReprobe, srtt)
}

// startTicking begins (or resumes) the paced data stream at the current
// rate.
func (l *Logic) startTicking(env cc.Env, now sim.Time) {
	if l.st.Ticking || env.Finished() {
		return
	}
	l.st.Ticking = true
	l.tick(env, now)
}

func (l *Logic) tick(env cc.Env, now sim.Time) {
	if env.Finished() {
		l.st.Ticking = false
		return
	}
	sc := env.Sack()
	sent := false
	if lost := sc.NextLost(sc.CumAck(), env.DupThresh(), l.st.RetxBudget); lost >= 0 {
		env.SendSegment(lost, true, false, now)
		sent = true
	} else if next := sc.HighSent() + 1; next < env.NumSegs() && next < env.WindowLimit() {
		env.SendSegment(next, false, false, now)
		sent = true
	}
	if !sent || env.Finished() {
		// Nothing sendable, or the send itself exhausted the flow's
		// retransmission budget: stop. An ACK or RTO restarts the
		// stream; a terminal flow must not leave a tick scheduled.
		l.st.Ticking = false
		return
	}
	env.ArmTimer(cc.TimerTick, l.interval())
}

// OnTimer dispatches the controller's timers: probe-train packets (aux
// slots), the probe verdict deadline, the re-probe pause, and the data
// pacing tick.
func (l *Logic) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {
	if i, ok := kind.Aux(); ok {
		if i >= ProbeTrainLen || env.Finished() {
			return
		}
		l.st.ProbeSent[i] = now
		env.SendProbe(l.st.ProbeBase+int32(i), ProbeSize, now)
		return
	}
	switch kind {
	case cc.TimerProbeDeadline:
		if l.st.Probing {
			l.probeVerdict(env, false, now)
		}
	case cc.TimerReprobe:
		if !env.Finished() {
			l.startProbe(env, now)
		}
	case cc.TimerTick:
		l.tick(env, now)
	}
}

func (l *Logic) OnLoss(env cc.Env, now sim.Time) {
	l.st.RetxBudget++
	l.st.Rate = max(l.st.Rate/2, l.st.FloorRate)
	sc := env.Sack()
	l.st.LossEventEnd = sc.HighSent()
	if seq := sc.CumAck(); seq < env.NumSegs() && sc.SentOnce(seq) && !sc.IsAcked(seq) {
		env.SendSegment(seq, true, false, now)
	}
	if !l.st.Ticking && !l.st.Probing {
		l.startTicking(env, now)
	}
}

// Decision reports the current rate; PCP is always rate-paced.
func (l *Logic) Decision() cc.Decision {
	return cc.Decision{RateBps: l.st.Rate, Pacing: true}
}
