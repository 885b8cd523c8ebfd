// Package cc defines the pluggable congestion-controller interface that
// every scheme in this repository implements (DESIGN.md §10). It plays
// the role pluggable CC plays in real QUIC stacks: a Controller is pure
// decision logic — it owns no connection, no scheduler and no sockets —
// and talks to the transport through the narrow Env interface. One
// controller implementation therefore runs unchanged under the
// experiment harness, the torture/blackout harnesses in internal/ptest,
// the scheme-conformance suite (which drives controllers with canned
// traces against a fake Env), and any future substrate (live UDP).
//
// The event vocabulary is the classic congestion-control quartet:
//
//   - OnEstablished: the handshake finished; start transmitting.
//   - OnAck: acknowledgement state advanced (or a probe reported back).
//   - OnLoss: the retransmission timer expired (SACK-inferred losses
//     are read from the Sack view, which is where the per-scheme
//     inference policies differ).
//   - OnTimer: a controller-owned timer fired (pacing complete, tail
//     probe, rate tick, probe-train deadline, ...).
//
// A controller sends only from these callbacks, through the Env, and
// exposes its control law via Decision (window or rate).
package cc

import (
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// Sack is the controller's read-and-infer view of the SACK scoreboard.
// It is satisfied by *transport.Scoreboard; the conformance suite feeds
// controllers a scoreboard it scripts directly.
type Sack interface {
	// CumAck returns the lowest segment not cumulatively acknowledged.
	CumAck() int32
	// HighSent returns the highest segment ever sent, or -1.
	HighSent() int32
	// IsAcked reports whether the receiver is known to hold seq.
	IsAcked(seq int32) bool
	// SentOnce reports whether seq was ever transmitted.
	SentOnce(seq int32) bool
	// SackedAboveCum counts selectively acknowledged segments at or
	// above the cumulative-ACK point.
	SackedAboveCum() int32
	// DeemedLost reports whether seq should be inferred lost under the
	// given duplicate threshold.
	DeemedLost(seq int32, dupThresh int) bool
	// NextLost returns the lowest segment ≥ from deemed lost with fewer
	// than maxRetx retransmissions, or -1.
	NextLost(from int32, dupThresh, maxRetx int) int32
	// MarkOutstandingLost applies the RFC 5681 timeout presumption.
	MarkOutstandingLost()
	// Holes returns every sent, unacknowledged segment.
	Holes() []int32
	// Pipe estimates segments in flight per RFC 6675.
	Pipe(dupThresh int) int32
	// HighestUnacked returns the highest sent segment the receiver is
	// not known to hold, or -1.
	HighestUnacked() int32
}

// TimerKind names a controller-owned timer. The connection keeps one
// closure-free scheduler timer per kind; a controller arms one with
// Env.ArmTimer and receives the expiry through OnTimer.
type TimerKind uint8

const (
	// TimerPaceDone fires when a paced range requested via Env.Pace has
	// fully left the sender.
	TimerPaceDone TimerKind = iota
	// TimerPTO is the tail-probe timeout (Reactive TCP).
	TimerPTO
	// TimerTick is the rate-pacing tick (PCP's data stream).
	TimerTick
	// TimerProbeDeadline bounds a probe round (PCP).
	TimerProbeDeadline
	// TimerReprobe delays the next probe round after a failed one (PCP).
	TimerReprobe
	// timerAux0 starts the block of MaxAuxTimers general-purpose
	// one-shot slots (PCP schedules each packet of a probe train on
	// one). Use TimerAux/Aux to convert slot indexes.
	timerAux0
)

// MaxAuxTimers is how many auxiliary one-shot timer slots a controller
// may hold armed at once.
const MaxAuxTimers = 8

// NumTimerKinds is the size of the connection's timer table.
const NumTimerKinds = int(timerAux0) + MaxAuxTimers

// TimerAux returns the TimerKind for auxiliary slot i ∈ [0,MaxAuxTimers).
func TimerAux(i int) TimerKind {
	if i < 0 || i >= MaxAuxTimers {
		panic("cc: aux timer slot out of range")
	}
	return timerAux0 + TimerKind(i)
}

// Aux reports whether k is an auxiliary slot and which one.
func (k TimerKind) Aux() (int, bool) {
	if k >= timerAux0 && int(k) < NumTimerKinds {
		return int(k - timerAux0), true
	}
	return 0, false
}

// String names the kind for test failure messages.
func (k TimerKind) String() string {
	switch k {
	case TimerPaceDone:
		return "pace-done"
	case TimerPTO:
		return "pto"
	case TimerTick:
		return "tick"
	case TimerProbeDeadline:
		return "probe-deadline"
	case TimerReprobe:
		return "reprobe"
	default:
		if i, ok := k.Aux(); ok {
			return "aux" + string(rune('0'+i))
		}
		return "unknown"
	}
}

// AckEvent is what one acknowledgement changed, as seen by the
// controller. For probe feedback (PCP) Probe is set and Seq/OWD carry
// the probe's identity and one-way-delay measurement; the scoreboard
// fields are zero.
type AckEvent struct {
	// NewCumAcked is how far the cumulative-ACK point advanced.
	NewCumAcked int32
	// NewSacked is how many segments became selectively acknowledged.
	NewSacked int32
	// Duplicate reports an ACK that advanced nothing.
	Duplicate bool

	// Probe marks probe feedback rather than a data acknowledgement.
	Probe bool
	// Seq is the probe sequence number (Probe only).
	Seq int32
	// OWD is the probe's measured one-way delay (Probe only).
	OWD sim.Duration
}

// Decision is the controller's current control law, for tracing and the
// conformance suite: window-based schemes report CwndSegs, rate-based
// schemes report RateBps, and Pacing marks a scheme currently spreading
// transmissions over time rather than bursting a window.
type Decision struct {
	// CwndSegs is the congestion window in segments (0 = rate-based or
	// not yet established).
	CwndSegs float64
	// RateBps is the target sending rate in bytes/sec (0 = window-based).
	RateBps float64
	// Pacing reports that transmissions are currently being paced.
	Pacing bool
}

// Env is everything a controller may observe about and do to its flow.
// *transport.Conn implements it on a live connection; the conformance
// suite implements it on canned traces.
type Env interface {
	// --- observation ---

	// Sack returns the SACK scoreboard view.
	Sack() Sack
	// NumSegs returns the flow length in segments.
	NumSegs() int32
	// FlowBytes returns the flow length in bytes.
	FlowBytes() int
	// FcwSegs returns the advertised flow-control window in segments.
	FcwSegs() int32
	// WindowLimit returns the exclusive upper bound on sendable
	// sequence numbers imposed by flow control.
	WindowLimit() int32
	// DupThresh returns the SACK loss-inference threshold.
	DupThresh() int
	// HandshakeRTT returns the SYN→SYNACK measurement: the round trip
	// of the SYN the SYNACK answered, not counting lost SYNs.
	HandshakeRTT() sim.Duration
	// SRTT returns the smoothed RTT estimate (0 before any sample).
	SRTT() sim.Duration
	// Finished reports the flow reached a terminal state (done or
	// aborted). Send loops must check it between sends.
	Finished() bool
	// Established reports the handshake has completed.
	Established() bool
	// Completed reports the receiver held every byte before the end.
	Completed() bool
	// EstablishedAt returns when the handshake completed.
	EstablishedAt() sim.Time
	// FinishedAt returns when the sender learned of completion.
	FinishedAt() sim.Time
	// Path identifies the flow's endpoints, for cross-flow state keyed
	// by path (TCP-Cache, Halfback-Adaptive's rate history).
	Path() (src, dst netem.NodeID)

	// --- action ---

	// SendSegment transmits one data segment; retransmit marks copies
	// after the first and proactive marks loss-signal-free copies.
	SendSegment(seq int32, retransmit, proactive bool, now sim.Time)
	// SendProbe emits one bandwidth-probe packet (PCP).
	SendProbe(seq int32, size int, now sim.Time)
	// Pace schedules paced first transmissions of [lo,hi) evenly across
	// total, starting immediately; TimerPaceDone fires after the last.
	// Re-pacing replaces any previous schedule.
	Pace(lo, hi int32, total sim.Duration)
	// ArmTimer (re)arms a controller timer; expiry arrives via OnTimer.
	ArmTimer(kind TimerKind, d sim.Duration)
	// StopTimer cancels a controller timer.
	StopTimer(kind TimerKind)
}

// Controller is one scheme's congestion-control decision logic. A
// controller is created per flow, carries no references to transport
// internals, and is driven entirely through these callbacks.
type Controller interface {
	// OnEstablished runs when the handshake completes; the handshake
	// RTT sample is already folded into the estimator.
	OnEstablished(env Env, now sim.Time)
	// OnAck runs for every acknowledgement that does not complete the
	// flow, after the scoreboard has been updated.
	OnAck(env Env, ev AckEvent, now sim.Time)
	// OnLoss runs when the retransmission timer expires. The transport
	// has already counted the timeout and applied RTO backoff; the
	// controller decides what to retransmit and how its window or rate
	// reacts.
	OnLoss(env Env, now sim.Time)
	// OnTimer runs when a controller timer armed via Env.ArmTimer (or
	// the pace-completion sentinel) fires.
	OnTimer(env Env, kind TimerKind, now sim.Time)
	// Decision reports the current control law.
	Decision() Decision
}

// DoneHook is implemented by controllers that must run when the flow
// reaches a terminal state (cache/history write-back). The connection
// has already stopped the controller's pacer and timers when it runs.
type DoneHook interface {
	OnDone(env Env, now sim.Time)
}
