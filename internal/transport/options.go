// Package transport is the reliable-datagram substrate every scheme in
// this repository is built on. It plays the role UDT-with-selective-ACK
// plays in the paper (§4.1): connection setup (SYN/SYNACK, counted in
// flow completion time), 1500-byte segments, per-packet selective
// acknowledgements, a SACK scoreboard, RFC 6298-style RTT/RTO estimation,
// pacing and timers.
//
// A protocol ("scheme") is a cc.Controller. The Conn owns everything
// protocol-independent, runs the controller it was built with, and is
// the cc.Env the controller observes and acts through (DESIGN.md §10).
package transport

import (
	"fmt"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

// Options carries the transport parameters some caller varies per flow
// or per universe. The defaults mirror §4.1 of the paper.
type Options struct {
	// FlowWindow is the receiver's advertised flow-control window in
	// bytes. The paper fixes it to 141 KB, "the same as that of
	// Windows XP".
	FlowWindow int

	// MaxRTO caps exponential backoff.
	MaxRTO sim.Duration

	// MaxTimeouts aborts the connection (AbortRetxBudgetExhausted)
	// after this many consecutive retransmission timeouts without
	// forward progress (RFC 1122's R2 give-up, ≈15 retries in common
	// stacks). It bounds the lifetime of unrecoverable flows. Zero
	// selects the default of 15; a negative value disables the give-up
	// entirely (the historical "retry forever" behaviour, kept only so
	// the supervision layer's stall detector can be demonstrated).
	MaxTimeouts int

	// MaxSynRetx caps SYN retransmissions: when the handshake timer
	// would retransmit the SYN for the (MaxSynRetx+1)-th time the
	// connection aborts with AbortHandshakeTimeout instead (cf. Linux's
	// tcp_syn_retries, default 6 ≈ 127 s). Zero — the default — keeps
	// the substrate's historical behaviour of retrying forever, so
	// recorded goldens are unaffected unless a caller opts in.
	MaxSynRetx int

	// MaxRetx bounds the total number of data retransmissions
	// (reactive and proactive copies alike) a flow may send; exceeding
	// it aborts the connection with AbortRetxBudgetExhausted. Zero —
	// the default — means unlimited. Unlike MaxTimeouts this budget is
	// cumulative over the flow's lifetime, so it also catches flows
	// that make just enough progress to keep resetting the RTO backoff
	// while resending most of their data.
	MaxRetx int

	// FlowDeadline bounds the flow's total lifetime, measured from
	// Start: if the sender has not learnt of completion when the
	// deadline elapses the connection aborts with
	// AbortDeadlineExceeded. Zero — the default — means no deadline.
	FlowDeadline sim.Duration

	// ZeroRTT skips the handshake wait, as TCP Fast Open [31] / ASAP
	// [37] would: the sender begins transmitting at Start, using
	// RTTHint (a previous connection's measurement, the analog of a
	// TFO cookie's amortised setup) as the pacing RTT. The paper's §6
	// notes such mechanisms are orthogonal drop-ins for Halfback's
	// connection establishment, and that all its own measurements
	// include the full handshake.
	ZeroRTT bool

	// RTTHint seeds the RTT estimate for ZeroRTT connections (default
	// 60 ms when unset).
	RTTHint sim.Duration

	// DelayedAcks makes the receiver acknowledge every second data
	// packet (or after delayedAckTimeout for a lone packet) instead of
	// every packet. The paper's UDT substrate acknowledges every
	// packet; this option exists to study how sensitive the
	// ACK-clocked schemes (Halfback's ROPR above all) are to a thinner
	// ACK stream.
	DelayedAcks bool

	// AckValidation selects the misbehaving-peer policy (see
	// validate.go). The zero value — AckValidationClamp — validates
	// every ACK and silently discards flagged ones, which leaves honest
	// flows bit-identical and bounds dishonest ones by the existing
	// retransmission budgets. AckValidationAbort additionally tears the
	// flow down with AbortPeerMisbehavior once MisbehaviorTolerance
	// flagged ACKs have been seen. AckValidationOff trusts the wire
	// completely (the pre-hardening behaviour, kept for the identity
	// tests and for measuring what attacks cost an unprotected stack).
	AckValidation AckValidationMode

	// MisbehaviorTolerance is how many flagged ACKs an
	// AckValidationAbort connection absorbs before aborting; the
	// default 0 aborts on the first. Clamp mode ignores it.
	MisbehaviorTolerance int
}

// AckValidationMode selects how a connection treats ACKs that fail
// validation.
type AckValidationMode uint8

const (
	// AckValidationClamp (default): validate and discard flagged ACKs,
	// never abort on them.
	AckValidationClamp AckValidationMode = iota
	// AckValidationAbort: validate, discard, and abort the flow with
	// AbortPeerMisbehavior once more than MisbehaviorTolerance ACKs
	// have been flagged.
	AckValidationAbort
	// AckValidationOff: trust every ACK (no validation).
	AckValidationOff
)

// String renders the mode for flags and error messages.
func (m AckValidationMode) String() string {
	switch m {
	case AckValidationClamp:
		return "clamp"
	case AckValidationAbort:
		return "abort"
	case AckValidationOff:
		return "off"
	default:
		return fmt.Sprintf("AckValidationMode(%d)", uint8(m))
	}
}

// The transport constants no caller varies; a full data segment is
// netem.SegmentSize bytes on the wire (paper: 1500).
const (
	// initialRTO is the retransmission timeout before any RTT sample
	// exists (handshake loss). RFC 6298 specifies 1 s.
	initialRTO = 1 * sim.Second
	// minRTO floors the computed retransmission timeout: RFC 6298's
	// conservative 1 s ("RTO SHOULD be rounded up to 1 second"), which
	// matches the second-scale timeout penalties visible throughout the
	// paper's measurements.
	minRTO = 1 * sim.Second
	// dupThresh is the SACK-based loss-inference threshold: a segment
	// is deemed lost once dupThresh segments above it have been
	// selectively acknowledged (RFC 6675's rule with per-packet ACKs).
	dupThresh = 3
	// delayedAckTimeout bounds how long a delayed ACK may be withheld
	// (the classic 40 ms).
	delayedAckTimeout = 40 * sim.Millisecond
)

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		FlowWindow:  141 * 1000,
		MaxRTO:      60 * sim.Second,
		MaxTimeouts: 15,
	}
}

// WindowSegments converts the flow-control window to whole segments.
func (o Options) WindowSegments() int32 {
	n := int32(o.FlowWindow / netem.SegmentPayload)
	if n < 1 {
		n = 1
	}
	return n
}

func (o *Options) applyDefaults() {
	d := DefaultOptions()
	if o.FlowWindow == 0 {
		o.FlowWindow = d.FlowWindow
	}
	if o.MaxRTO == 0 {
		o.MaxRTO = d.MaxRTO
	}
	if o.MaxTimeouts == 0 {
		o.MaxTimeouts = d.MaxTimeouts
	}
}
