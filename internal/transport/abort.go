package transport

import (
	"errors"
	"fmt"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

// ErrAborted is the sentinel every *AbortError unwraps to, so callers
// can test errors.Is(err, transport.ErrAborted) without naming the
// concrete type.
var ErrAborted = errors.New("transport: flow aborted")

// AbortReason classifies why a connection entered the terminal Aborted
// state. The zero value means the flow was not aborted.
type AbortReason uint8

const (
	// AbortNone marks a flow that never aborted.
	AbortNone AbortReason = iota
	// AbortHandshakeTimeout: the SYN was retransmitted MaxSynRetx times
	// without ever seeing a SYNACK.
	AbortHandshakeTimeout
	// AbortRetxBudgetExhausted: the flow spent its retransmission
	// budget — either MaxTimeouts consecutive RTO firings without
	// cumulative progress (RFC 1122's R2 give-up) or more than MaxRetx
	// data retransmissions in total.
	AbortRetxBudgetExhausted
	// AbortDeadlineExceeded: the FlowDeadline elapsed before the sender
	// learned of completion.
	AbortDeadlineExceeded
	// AbortExternal: the embedding harness tore the flow down (e.g. the
	// simulation horizon passed with the flow still in progress).
	AbortExternal
	// AbortPeerMisbehavior: ACK validation flagged the peer as
	// misbehaving (see PeerMisbehavior) under AckValidationAbort.
	AbortPeerMisbehavior
)

// String renders the reason for tables and error messages.
func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortHandshakeTimeout:
		return "handshake-timeout"
	case AbortRetxBudgetExhausted:
		return "retx-budget"
	case AbortDeadlineExceeded:
		return "deadline"
	case AbortExternal:
		return "external"
	case AbortPeerMisbehavior:
		return "peer-misbehavior"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// AbortError is the structured error for an aborted flow. It implements
// the failure-class marker the fleet's error taxonomy dispatches on
// (fleet.Classify) without fleet importing transport.
type AbortError struct {
	Flow   netem.FlowID
	Scheme string
	Reason AbortReason
	At     sim.Time
}

// Error renders "transport: flow 3 (Halfback) aborted: retx-budget at 82.1s".
func (e *AbortError) Error() string {
	if e.Scheme != "" {
		return fmt.Sprintf("transport: flow %d (%s) aborted: %s at %v", e.Flow, e.Scheme, e.Reason, e.At)
	}
	return fmt.Sprintf("transport: flow %d aborted: %s at %v", e.Flow, e.Reason, e.At)
}

// FailureClass marks aborted flows for the fleet error taxonomy.
func (e *AbortError) FailureClass() string { return "aborted" }

// Unwrap links every abort into the ErrAborted chain for errors.Is.
func (e *AbortError) Unwrap() error { return ErrAborted }

// AbortError returns a structured *AbortError for an aborted flow, or
// nil for a flow that completed (or never aborted).
func (s *FlowStats) AbortError() error {
	if !s.Aborted {
		return nil
	}
	return &AbortError{Flow: s.ID, Scheme: s.Scheme, Reason: s.AbortReason, At: s.AbortedAt}
}
