package transport

import (
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// FlowStats records everything the experiment harness needs about one
// flow: completion times, retransmission behaviour, and loss exposure.
type FlowStats struct {
	ID     netem.FlowID
	Scheme string

	FlowBytes int
	NumSegs   int32

	// Start is when the connection attempt began (SYN first sent); the
	// paper's FCT "includes both the data transmission time and
	// connection setup time" (§4.2.1).
	Start sim.Time
	// Established is when the sender completed the handshake.
	Established sim.Time
	// ReceiverDone is when the receiver held every byte of the flow —
	// the flow completion instant used for FCT.
	ReceiverDone sim.Time
	// SenderDone is when the sender learned of completion (final ACK).
	SenderDone sim.Time
	// Completed reports the flow finished before the simulation ended.
	Completed bool

	// Aborted reports the connection ended in the terminal Aborted
	// state (lifecycle give-up or external teardown) rather than by
	// acknowledging every byte.
	Aborted bool
	// AbortReason classifies the abort (AbortNone when !Aborted).
	AbortReason AbortReason
	// AbortedAt is the virtual time of the abort.
	AbortedAt sim.Time

	// HandshakeRTT is the SYN→SYNACK measurement the aggressive
	// schemes pace against: the round trip of the SYN the SYNACK
	// answers, whose send time the SYNACK echoes, so lost SYNs and
	// their backoff do not count. An echo outside [Start, Established]
	// falls back to the time since Start.
	HandshakeRTT sim.Duration

	// DataPktsSent counts all data transmissions including every
	// retransmission and proactive copy.
	DataPktsSent int64
	// NormalRetx counts reactive (loss-signalled) retransmissions:
	// SACK-inferred fast retransmits, probe retransmits, and RTO
	// retransmits. This is the paper's "normal retransmission" metric
	// (Figs. 5, 10b).
	NormalRetx int64
	// ProactiveRetx counts retransmissions sent without a loss signal
	// (ROPR, Proactive TCP's duplicates).
	ProactiveRetx int64
	// Timeouts counts RTO firings after establishment.
	Timeouts int64
	// HandshakeRetx counts SYN retransmissions.
	HandshakeRetx int64

	// DupDataAtReceiver counts data packets the receiver already held —
	// the bandwidth overhead of aggression, visible at the far end.
	DupDataAtReceiver int64
	// ChecksumDrops counts data segments the receiver discarded because
	// their payload checksum failed (in-flight corruption).
	ChecksumDrops int64
	// PayloadSumRecv is the XOR fold of the payload checksums of every
	// distinct segment the receiver accepted. For a complete,
	// uncorrupted flow it equals Conn.ExpectedPayloadSum(); see
	// checksum.go.
	PayloadSumRecv uint64
	// LossSeen reports whether the sender ever inferred or timed out on
	// a loss, or the receiver observed a sequence hole; used to split
	// the population for Fig. 8.
	LossSeen bool

	// Misbehavior counts ACKs the validator flagged, indexed by
	// PeerMisbehavior class (index 0, MisbehaviorNone, stays zero).
	Misbehavior [NumPeerMisbehaviors]int64
	// FirstMisbehavior is the class of the first flagged ACK
	// (MisbehaviorNone if the peer never misbehaved).
	FirstMisbehavior PeerMisbehavior
}

// MisbehaviorTotal returns how many ACKs the validator flagged across
// all classes.
func (s *FlowStats) MisbehaviorTotal() int64 {
	var total int64
	for _, n := range s.Misbehavior[1:] {
		total += n
	}
	return total
}

// FCT returns the flow completion time (receiver has all data, measured
// from connection initiation). For incomplete flows it returns the
// elapsed time until end, which callers should guard with Completed.
func (s *FlowStats) FCT() sim.Duration {
	return s.ReceiverDone.Sub(s.Start)
}

// RTTCount returns FCT expressed in multiples of the path's base RTT,
// the paper's Fig. 7 metric.
func (s *FlowStats) RTTCount(baseRTT sim.Duration) float64 {
	if baseRTT <= 0 {
		return 0
	}
	return float64(s.FCT()) / float64(baseRTT)
}
