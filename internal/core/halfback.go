// Package core implements Halfback, the paper's contribution (§3): an
// aggressive but safe short-flow transmission scheme with three phases.
//
//  1. Pacing (§3.1): after the handshake the sender paces
//     min(flow, pacing threshold) evenly across the handshake RTT — fast
//     delivery with bounded burstiness. The threshold is the
//     flow-control window, the paper's evaluation setting (§4.1:
//     "Halfback sets the Pacing Threshold to the flow control window
//     size"), or less under Config.History.
//  2. ROPR (§3.2): once all paced packets are out and the first ACK of
//     the phase arrives, each further ACK clocks one proactive
//     retransmission of the highest-sequence unacknowledged segment,
//     walking backwards — packets at the end of the paced burst are the
//     most likely to have overflowed the bottleneck queue. The phase
//     ends when the ACK frontier meets the retransmission pointer, so
//     typically ~50% of the flow is retransmitted (hence "Halfback").
//  3. TCP fallback (§3.3): flows longer than the threshold deliver their
//     first k bytes with phases 1–2, then continue under standard
//     congestion avoidance with cwnd = s·RTT, where s is the ACK rate
//     observed during ROPR.
//
// Normal TCP loss recovery (SACK-inferred fast retransmission and RTO)
// runs in parallel throughout, but retransmissions are ACK-clocked — at
// most one segment is retransmitted per arriving ACK, with
// loss-confirmed segments taking priority over proactive ones. This is
// the "limited aggressiveness" that §5 shows is essential to Halfback's
// safety.
//
// The package also implements the §5 ablations: Halfback-Forward
// (proactive retransmission in forward order) and Halfback-Burst
// (proactive retransmissions at line rate instead of ACK-clocked).
package core

import (
	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/protocols/tcp"
	"halfback/internal/sim"
)

// RetxOrder selects the proactive-retransmission strategy (§5's design
// space: direction × rate).
type RetxOrder uint8

const (
	// Reverse is Halfback proper: ACK-clocked, highest-sequence-first.
	Reverse RetxOrder = iota
	// Forward is the Halfback-Forward ablation: ACK-clocked,
	// lowest-sequence-first.
	Forward
	// Burst is the Halfback-Burst ablation: all proactive
	// retransmissions issued at line rate when ROPR would begin.
	Burst
)

// String names the order for scheme labels.
func (o RetxOrder) String() string {
	switch o {
	case Reverse:
		return "reverse"
	case Forward:
		return "forward"
	case Burst:
		return "burst"
	default:
		return "unknown"
	}
}

// Config parameterises a Halfback sender.
type Config struct {
	// Order selects Reverse (Halfback), Forward or Burst (§5
	// ablations).
	Order RetxOrder

	// DisableROPR turns off proactive retransmission entirely,
	// yielding a pacing-only scheme for ablation studies.
	DisableROPR bool

	// InitialBurst implements the refinement §4.2.4 suggests: send the
	// first InitialBurst segments immediately (like TCP-10's initial
	// window) and pace only the remainder across the RTT, removing the
	// pacing delay that lets burst-start schemes beat Halfback on very
	// small flows. Zero disables the refinement (the paper's evaluated
	// configuration).
	InitialBurst int32

	// History, when non-nil, enables §3.1's adaptive Pacing Threshold:
	// the aggressive prefix is bounded by the path's remembered
	// throughput × the handshake RTT, so a repeat visit to a slow path
	// does not over-pace it. Cold paths fall back to the flow-control
	// window.
	History *RateHistory

	// ProactiveRatio tunes ROPR's budget as retransmissions per ACK
	// (§5's open question: "instead of sending one retransmission for
	// each ACK, we could send two retransmissions for every three
	// ACKs"). Zero means the paper's 1.0. Values below 1 trade recovery
	// speed for bandwidth overhead; values above 1 are rejected — that
	// would outrun the ACK clock.
	ProactiveRatio float64
}

// halfbackState is the sender's decision state. The phase is implicit:
// pacing until PacingDone, then ROPR until the fallback Reno engine
// starts, which keeps its own state.
type halfbackState struct {
	PacedHi    int32 // exclusive upper bound of the paced prefix
	PacingDone bool

	RoprPtr     int32 // next candidate for proactive retransmission
	RoprDone    bool
	ForwardInit bool  // Forward ablation: cursor has been reset to 0
	ProCount    int32 // proactive retransmissions issued so far
	ProBudget   int32 // ~50% of the paced prefix (§5: "50% additional bandwidth")

	// ACK-rate measurement for the fallback window (§3.3).
	AckCount     int32
	FirstAckTime sim.Time
	LastAckTime  sim.Time

	// RatioCredit accumulates ProactiveRatio per ACK; a ROPR step
	// spends one whole credit, so e.g. ratio 2/3 sends two
	// retransmissions per three ACKs.
	RatioCredit float64

	// ReactiveSent counts loss-triggered retransmissions per segment.
	// It is deliberately separate from the scoreboard's total
	// retransmission counts: the "normal TCP retransmission [that]
	// runs in parallel with ROPR" (§4.2.1) keeps its own state and is
	// unaware of proactive copies, so a segment whose ROPR copy was
	// itself lost is still recoverable reactively before any timeout.
	ReactiveSent []uint8
	// LastCopyAt is when each segment was last (re)transmitted by this
	// logic, used to damp ROPR wrap rounds: a hole is only re-covered
	// once its previous copy is at least one SRTT old, i.e. presumed
	// lost. This keeps the proactive rate at one per ACK and at most
	// one outstanding copy per segment per round trip.
	LastCopyAt []sim.Time

	RetxBudget int
}

// Logic is the Halfback sender state machine.
type Logic struct {
	conf Config
	st   halfbackState

	// reno drives the TCP fallback for flows longer than the paced
	// prefix; nil until the prefix is delivered.
	reno *tcp.Reno
}

// New returns the Controller factory for the given configuration.
func New(conf Config) func() cc.Controller {
	if conf.ProactiveRatio < 0 || conf.ProactiveRatio > 1 {
		panic("core: ProactiveRatio must be in (0,1]")
	}
	if conf.ProactiveRatio == 0 {
		conf.ProactiveRatio = 1
	}
	return func() cc.Controller {
		return &Logic{conf: conf, st: halfbackState{RetxBudget: 1}}
	}
}

// PacedSegments reports the size of the aggressive prefix, for tests.
func (l *Logic) PacedSegments() int32 { return l.st.PacedHi }

// ROPRDone reports whether the proactive phase has completed.
func (l *Logic) ROPRDone() bool { return l.st.RoprDone }

// InFallback reports whether the TCP fallback engine is active.
func (l *Logic) InFallback() bool { return l.reno != nil }

// FallbackCwnd returns the fallback engine's congestion window (0 if the
// engine has not started), for tests and traces.
func (l *Logic) FallbackCwnd() float64 {
	if l.reno == nil {
		return 0
	}
	return l.reno.Cwnd
}

// OnEstablished starts the Pacing phase.
func (l *Logic) OnEstablished(env cc.Env, now sim.Time) {
	hi := env.NumSegs()
	if w := env.FcwSegs(); hi > w {
		hi = w
	}
	if l.conf.History != nil {
		src, dst := env.Path()
		if th := l.conf.History.thresholdFor(src, dst, env.HandshakeRTT()); th > 0 {
			t := int32(netem.SegmentsFor(th))
			if t < 2 {
				t = 2
			}
			if hi > t {
				hi = t
			}
		}
	}
	l.st.PacedHi = hi
	l.st.RoprPtr = hi - 1
	l.st.ProBudget = (hi + 1) / 2
	l.st.ReactiveSent = make([]uint8, env.NumSegs())
	l.st.LastCopyAt = make([]sim.Time, env.NumSegs())

	rtt := env.HandshakeRTT()
	if rtt <= 0 {
		rtt = 1 * sim.Millisecond
	}
	// §4.2.4 refinement: burst the first few segments like TCP-10,
	// then pace the rest across the RTT.
	lo := int32(0)
	if b := l.conf.InitialBurst; b > 0 {
		for lo < hi && lo < b {
			env.SendSegment(lo, false, false, now)
			lo++
		}
	}
	env.Pace(lo, hi, rtt)
}

// OnTimer receives the pacing-complete sentinel and moves to ROPR.
func (l *Logic) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {
	if kind != cc.TimerPaceDone {
		return
	}
	l.st.PacingDone = true
}

// OnAck is the per-ACK heart of Halfback: measure the ACK rate, run the
// parallel reactive recovery (ACK-clocked), clock ROPR, and drive the
// fallback engine once it exists.
func (l *Logic) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	if l.st.FirstAckTime == 0 {
		l.st.FirstAckTime = now
	}
	l.st.LastAckTime = now
	l.st.AckCount++

	sc := env.Sack()

	if l.reno != nil {
		// Fallback phase: the Reno engine owns recovery and new data.
		l.reno.OnAck(env, ev, now)
		return
	}

	// ROPR and parallel normal recovery, ACK-clocked: at most ONE
	// retransmission leaves per arriving ACK — "for each one of the
	// paced packets that leaves the bottleneck queue, we send one
	// proactively retransmitted packet" (§3.2). The proactive pass is
	// the per-ACK action; the reactive fast-retransmit path only uses
	// the ACK when ROPR has no candidate (before pacing completes, or
	// once the phase is over). This is why Halfback's recoveries are
	// overwhelmingly proactive and its *normal* retransmission counts
	// stay far below JumpStart's (Figs. 5, 10b).
	sent := false
	if l.st.PacingDone && !l.st.RoprDone && !l.conf.DisableROPR {
		l.st.RatioCredit += l.conf.ProactiveRatio
		if l.st.RatioCredit >= 1 {
			l.st.RatioCredit--
			before := l.st.ProCount
			switch l.conf.Order {
			case Burst:
				l.burstProactive(env, now)
			case Forward:
				l.stepForward(env, now)
			default:
				l.stepReverse(env, now)
			}
			sent = l.st.ProCount > before
		}
	}
	if !sent {
		l.reactiveRetransmit(env, now)
	}

	// Enter the fallback phase once the paced prefix is delivered and
	// the flow has more to send (§3.3).
	if sc.CumAck() >= l.st.PacedHi && l.st.PacedHi < env.NumSegs() {
		l.startFallback(env, now)
	}
}

// OnLoss retransmits the first hole, like TCP; the window consequence is
// the fallback engine's business if it is running.
func (l *Logic) OnLoss(env cc.Env, now sim.Time) {
	l.st.RetxBudget++
	if l.reno != nil {
		l.reno.OnLoss(env, now)
		return
	}
	sc := env.Sack()
	if seq := sc.CumAck(); seq < env.NumSegs() && sc.SentOnce(seq) && !sc.IsAcked(seq) {
		env.SendSegment(seq, true, false, now)
	}
}

// Decision reports the current control law: pacing during phase 1, the
// ACK clock (no window growth) during ROPR, and the fallback engine's
// window in phase 3.
func (l *Logic) Decision() cc.Decision {
	if l.reno != nil {
		return l.reno.Decision()
	}
	if !l.st.PacingDone {
		return cc.Decision{Pacing: true}
	}
	return cc.Decision{CwndSegs: float64(l.st.PacedHi)}
}

// OnDone records the achieved throughput for the adaptive-threshold
// history (the connection has already stopped the pacer).
func (l *Logic) OnDone(env cc.Env, now sim.Time) {
	if l.conf.History != nil && env.Completed() {
		elapsed := env.FinishedAt().Sub(env.EstablishedAt())
		if elapsed > 0 {
			src, dst := env.Path()
			l.conf.History.Observe(src, dst,
				float64(env.FlowBytes())/elapsed.Seconds())
		}
	}
}

// reactiveRetransmit sends at most one SACK-confirmed lost segment per
// ACK, with a per-segment reactive budget of one per timeout epoch. It
// reports whether a segment was sent.
func (l *Logic) reactiveRetransmit(env cc.Env, now sim.Time) bool {
	sc := env.Sack()
	for seq := sc.CumAck(); seq < l.st.PacedHi; seq++ {
		if sc.IsAcked(seq) || !sc.SentOnce(seq) {
			continue
		}
		if int(l.st.ReactiveSent[seq]) < l.st.RetxBudget && sc.DeemedLost(seq, env.DupThresh()) {
			l.st.ReactiveSent[seq]++
			l.st.LastCopyAt[seq] = now
			env.SendSegment(seq, true, false, now)
			return true
		}
	}
	return false
}

// stepReverse performs one ROPR step: proactively retransmit the highest
// unacknowledged segment at or below the pointer, then move the pointer
// past it.
//
// Termination follows Fig. 3's rule: the phase ends when "all the
// unACKed packets have already been proactively retransmitted". In the
// loss-free case the descending pointer meets the ascending ACK frontier
// in the middle, so ~50% of the flow is retransmitted — the eponymous
// behaviour. Under loss, once the pointer crosses the frontier the
// sender is not left idle while ACKs still arrive (§3.2 contrasts this
// with standard TCP "simply idle waiting for ACKs"): the pointer wraps
// to the highest remaining hole and keeps clocking one retransmission
// per ACK until nothing in the paced prefix is outstanding. These extra
// rounds are recovery work, not overhead — each targets a segment whose
// every prior copy was lost — and they are what lets Halfback avoid
// retransmission timeouts almost entirely.
func (l *Logic) stepReverse(env cc.Env, now sim.Time) {
	sc := env.Sack()
	for l.st.RoprPtr >= sc.CumAck() && sc.IsAcked(l.st.RoprPtr) {
		l.st.RoprPtr--
	}
	if l.st.RoprPtr < sc.CumAck() {
		// Wrap to the highest re-coverable hole: unacknowledged and
		// with no copy younger than one SRTT.
		srtt := env.SRTT()
		next := int32(-1)
		anyHole := false
		for seq := min32(l.st.PacedHi, sc.HighSent()+1) - 1; seq >= sc.CumAck(); seq-- {
			if sc.IsAcked(seq) {
				continue
			}
			anyHole = true
			if now.Sub(l.st.LastCopyAt[seq]) >= srtt {
				next = seq
				break
			}
		}
		if !anyHole {
			l.st.RoprDone = true
			return
		}
		if next < 0 {
			return // all holes have a fresh copy in flight; stay armed
		}
		l.st.RoprPtr = next
	}
	l.sendProactive(env, l.st.RoprPtr, now)
	l.st.RoprPtr--
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// stepForward is the §5 ablation: the pointer starts at the beginning of
// the paced prefix and walks upward, with the same ~50% proactive budget
// as Halfback proper. The first half of the flow is the least likely to
// have been lost, so this spends the budget on the wrong packets —
// exactly the effect Fig. 17 shows.
func (l *Logic) stepForward(env cc.Env, now sim.Time) {
	sc := env.Sack()
	if !l.st.ForwardInit {
		// Forward variant repurposes RoprPtr as an ascending cursor.
		l.st.ForwardInit = true
		l.st.RoprPtr = 0
	}
	if l.st.ProCount >= l.st.ProBudget {
		l.st.RoprDone = true
		return
	}
	for l.st.RoprPtr < l.st.PacedHi && sc.IsAcked(l.st.RoprPtr) {
		l.st.RoprPtr++
	}
	if l.st.RoprPtr >= l.st.PacedHi {
		l.st.RoprDone = true
		return
	}
	l.sendProactive(env, l.st.RoprPtr, now)
	l.st.RoprPtr++
}

// burstProactive is the §5 rate ablation: on the first post-pacing ACK,
// the same ~50% proactive budget is spent all at once at line rate
// (reverse order, so the same packets Halfback proper would cover).
func (l *Logic) burstProactive(env cc.Env, now sim.Time) {
	sc := env.Sack()
	for seq := l.st.PacedHi - 1; seq >= sc.CumAck() && l.st.ProCount < l.st.ProBudget; seq-- {
		// A retransmission budget can abort the flow mid-burst; stop
		// rather than spin SendSegment no-ops across the prefix.
		if env.Finished() {
			return
		}
		if !sc.IsAcked(seq) {
			l.sendProactive(env, seq, now)
		}
	}
	l.st.RoprDone = true
}

// sendProactive emits one proactive retransmission and charges the
// budget.
func (l *Logic) sendProactive(env cc.Env, seq int32, now sim.Time) {
	l.st.LastCopyAt[seq] = now
	env.SendSegment(seq, true, true, now)
	l.st.ProCount++
}

// startFallback hands the remainder of the flow to a Reno engine whose
// window is seeded from the ROPR-phase ACK rate: cwnd = s·RTT (§3.3).
func (l *Logic) startFallback(env cc.Env, now sim.Time) {
	if l.reno != nil {
		return
	}
	cwnd := l.estimateRateWindow(env)
	l.reno = tcp.NewReno(tcp.Config{InitialWindow: 2})
	l.reno.Cwnd = cwnd
	l.reno.Ssthresh = cwnd
	l.reno.Pump(env, now)
}

// estimateRateWindow computes s·RTT in segments from the observed ACK
// arrival rate.
func (l *Logic) estimateRateWindow(env cc.Env) float64 {
	elapsed := l.st.LastAckTime.Sub(l.st.FirstAckTime)
	srtt := env.SRTT()
	if elapsed <= 0 || l.st.AckCount < 2 || srtt <= 0 {
		return 2
	}
	rate := float64(l.st.AckCount-1) / float64(elapsed) // segments per ns
	cwnd := rate * float64(srtt)
	if cwnd < 2 {
		cwnd = 2
	}
	// Never exceed the flow-control window's worth of segments.
	if m := float64(env.FcwSegs()); cwnd > m {
		cwnd = m
	}
	return cwnd
}
