package transport

import (
	"fmt"

	"halfback/internal/netem"
)

// ACK validation. Every safety property of the schemes in this
// repository — and of the paper — otherwise rests on an honest
// receiver: the scoreboard believes any cumulative ACK and any SACK
// range the wire presents. A lying peer can exploit that trust to turn
// aggressive startup and Halfback's replicate-second-half into an
// amplification weapon (optimistic ACKing, Savage et al., CCR 1999),
// or to stall a flow into wasting its whole retransmission budget
// (SACK fabrication, ACK division). The AckValidator sits in front of
// the scoreboard and checks, for every incoming ACK:
//
//   - structural sanity: non-negative fields, ordered and disjoint
//     SACK ranges strictly above the cumulative ACK, at most
//     MaxSACKBlocks after exact-duplicate removal;
//   - the sent window: neither the cumulative ACK nor any SACK range
//     may pass HighSent+1 — the receiver cannot hold data that was
//     never transmitted;
//   - receipt proof: DATA segments carry an unguessable per-segment
//     nonce (a keyed pure function of flow and seq, mirroring how
//     PayloadSum models pseudorandom payload without materializing
//     bytes); an ACK that claims new data must echo the XOR fold of
//     the nonces of every segment it claims ([0,CumAck) plus all
//     advertised ranges). Guessing the fold for an unreceived segment
//     succeeds with probability 2^-64;
//   - ACK counting: RecvTotal must cover every claimed segment and
//     cannot exceed what the sender ever put on the wire (with
//     headroom for in-network duplication), which defeats ACK
//     division / inflation attacks on ack-clocked windows;
//   - dup-ACK rate: ACKs claiming nothing new are budgeted (a
//     generous linear budget in packets sent), which bounds the CPU
//     and send-opportunity amplification of a dup-ACK flood.
//
// The verdict is a typed PeerMisbehavior class. Policy is configurable
// (Options.AckValidation): Clamp — the default — discards the
// offending ACK and carries on, so an honest peer's flow is untouched
// and a dishonest one degrades into the existing retransmission-budget
// bounds; Abort tears the flow down with AbortPeerMisbehavior on the
// first flagged ACK.
//
// Honest-path identity: validation is synchronous (no timers, no
// events), allocation-free (the validator is a value field of Conn and
// folds nonces incrementally), and an honest receiver by construction
// never trips any check — so goldens, event counts and parallel/serial
// byte-equality are bit-identical with validation on or off.

// PeerMisbehavior classifies how an incoming acknowledgement violated
// the receiver's contract. The zero value means the ACK was clean.
type PeerMisbehavior uint8

const (
	// MisbehaviorNone marks a clean ACK.
	MisbehaviorNone PeerMisbehavior = iota
	// MisbehaviorAckMalformed: structurally invalid fields (negative
	// cumulative ACK, SACK count out of range, negative RecvTotal,
	// nonsense AckedSeq).
	MisbehaviorAckMalformed
	// MisbehaviorOptimisticAck: the cumulative ACK passed HighSent+1 —
	// the receiver claims contiguous data the sender never transmitted.
	MisbehaviorOptimisticAck
	// MisbehaviorSackOutOfWindow: a SACK range reaches beyond
	// HighSent+1.
	MisbehaviorSackOutOfWindow
	// MisbehaviorSackMalformed: empty or inverted SACK ranges, ranges
	// not strictly above the cumulative ACK, or overlapping ranges
	// after normalization.
	MisbehaviorSackMalformed
	// MisbehaviorNonceMismatch: the ACK claims new data but its echoed
	// nonce fold does not match the segments claimed — the receiver
	// acknowledged data it cannot prove it received.
	MisbehaviorNonceMismatch
	// MisbehaviorAckCounting: RecvTotal is inconsistent — smaller than
	// the number of segments the same ACK claims, or larger than the
	// sender's own transmission count can explain (ACK division /
	// inflation).
	MisbehaviorAckCounting
	// MisbehaviorDupAckFlood: the peer exceeded the budget of ACKs
	// that acknowledge nothing new.
	MisbehaviorDupAckFlood

	// NumPeerMisbehaviors sizes per-class counters.
	NumPeerMisbehaviors
)

// String renders the class for tables and test failure messages.
func (m PeerMisbehavior) String() string {
	switch m {
	case MisbehaviorNone:
		return "none"
	case MisbehaviorAckMalformed:
		return "ack-malformed"
	case MisbehaviorOptimisticAck:
		return "optimistic-ack"
	case MisbehaviorSackOutOfWindow:
		return "sack-out-of-window"
	case MisbehaviorSackMalformed:
		return "sack-malformed"
	case MisbehaviorNonceMismatch:
		return "nonce-mismatch"
	case MisbehaviorAckCounting:
		return "ack-counting"
	case MisbehaviorDupAckFlood:
		return "dupack-flood"
	default:
		return fmt.Sprintf("PeerMisbehavior(%d)", uint8(m))
	}
}

// dupAckBudgetBase and dupAckBudgetPerSend define the dup-ACK budget:
// base + perSend × DataPktsSent ACKs that claim nothing new are
// tolerated before the peer is flagged. An honest receiver generates
// at most one ACK per arriving data packet, and in-network duplication
// in the torture presets tops out around 10%, so a 4× linear budget
// plus slack never fires on an honest path while still bounding a
// flood to a constant factor of useful work.
const (
	dupAckBudgetBase    = 64
	dupAckBudgetPerSend = 4
)

// AckValidator holds the sender-side validation state for one flow: the
// nonce key and an incrementally maintained XOR fold of the nonces below
// the scoreboard's cumulative-ACK point. It is embedded by value in Conn
// and costs no allocations.
type AckValidator struct {
	secret   uint64
	cumFold  uint64 // XOR fold of SegNonce over [0, foldedTo)
	foldedTo int32
	dupAcks  int64
}

// Init keys the validator for a flow. The per-flow secret is derived
// deterministically from the flow ID — the simulation's stand-in for
// the random per-connection key a real stack would draw at handshake
// time; the threat model is a misbehaving *peer*, for whom the nonce
// stream is unguessable either way.
func (v *AckValidator) Init(flow netem.FlowID) {
	x := uint64(flow) ^ 0x5afe_ac4e_5afe_ac4e
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	v.secret = x
	v.cumFold = 0
	v.foldedTo = 0
	v.dupAcks = 0
}

// SegNonce returns the nonce the sender stamps on DATA segment seq —
// a SplitMix64 finalizer over the keyed sequence number, like
// PayloadSum but keyed per flow.
func (v *AckValidator) SegNonce(seq int32) uint64 {
	x := v.secret ^ uint64(uint32(seq))*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// foldRange returns the XOR fold of SegNonce over [lo, hi).
func (v *AckValidator) foldRange(lo, hi int32) uint64 {
	var f uint64
	for seq := lo; seq < hi; seq++ {
		f ^= v.SegNonce(seq)
	}
	return f
}

// foldTo returns the XOR fold of SegNonce over [0, k), extending the
// incremental prefix fold when k is at or beyond it (the common case:
// cumulative ACKs only advance) and recomputing from scratch for the
// rare reordered ACK whose cumulative point sits below the fold.
func (v *AckValidator) foldTo(k int32) uint64 {
	if k >= v.foldedTo {
		return v.cumFold ^ v.foldRange(v.foldedTo, k)
	}
	return v.foldRange(0, k)
}

// Commit advances the incremental prefix fold to the scoreboard's
// cumulative-ACK point after an accepted ACK has been applied.
func (v *AckValidator) Commit(s *Scoreboard) {
	if s.cumAck > v.foldedTo {
		v.cumFold ^= v.foldRange(v.foldedTo, s.cumAck)
		v.foldedTo = s.cumAck
	}
}

// DupAcks returns how many ACKs claiming nothing new have been seen.
func (v *AckValidator) DupAcks() int64 { return v.dupAcks }

// Check validates one incoming ACK against the scoreboard before it is
// applied. dataSent is the sender's count of data transmissions so far
// (FlowStats.DataPktsSent). It returns MisbehaviorNone for a clean ACK
// and the class of the first violation otherwise; a flagged ACK must
// not reach Scoreboard.Update.
func (v *AckValidator) Check(s *Scoreboard, pkt *netem.Packet, dataSent int64) PeerMisbehavior {
	cum := pkt.CumAck
	if cum < 0 || pkt.NumSACK < 0 || pkt.NumSACK > netem.MaxSACKBlocks ||
		pkt.RecvTotal < 0 || pkt.AckedSeq < -1 || pkt.AckedSeq >= s.n {
		return MisbehaviorAckMalformed
	}
	if cum > s.highSent+1 {
		return MisbehaviorOptimisticAck
	}

	// Normalize the advertised SACK ranges: drop exact duplicates,
	// then require each survivor to be non-empty, strictly above the
	// cumulative ACK, inside the sent window, and disjoint from the
	// others. Honest receivers (receiver.fillSACK) emit exactly this
	// shape; anything else is fabrication or corruption.
	var ranges [netem.MaxSACKBlocks]netem.SeqRange
	nr := 0
	for i := 0; i < pkt.NumSACK; i++ {
		r := pkt.SACK[i]
		if r.Hi <= r.Lo || r.Lo <= cum {
			return MisbehaviorSackMalformed
		}
		if r.Hi > s.highSent+1 {
			return MisbehaviorSackOutOfWindow
		}
		dup := false
		for j := 0; j < nr; j++ {
			if ranges[j] == r {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ranges[nr] = r
		nr++
	}
	for i := 1; i < nr; i++ { // insertion sort by Lo; nr ≤ 3
		for j := i; j > 0 && ranges[j].Lo < ranges[j-1].Lo; j-- {
			ranges[j], ranges[j-1] = ranges[j-1], ranges[j]
		}
	}
	claimed := int64(cum)
	for i := 0; i < nr; i++ {
		if i > 0 && ranges[i].Lo < ranges[i-1].Hi {
			return MisbehaviorSackMalformed
		}
		claimed += int64(ranges[i].Hi - ranges[i].Lo)
	}

	// ACK counting: the receiver must have received at least one data
	// packet per claimed segment, and cannot have received more
	// packets than the sender transmitted (headroom covers in-network
	// duplication, which the torture presets cap well below 2×).
	if int64(pkt.RecvTotal) < claimed {
		return MisbehaviorAckCounting
	}
	if int64(pkt.RecvTotal) > 2*dataSent+dupAckBudgetBase {
		return MisbehaviorAckCounting
	}

	// Does this ACK claim any segment the scoreboard does not already
	// credit? Only then is the nonce fold informative; ACKs that
	// restate known state (duplicates, reordered stragglers) skip the
	// proof but draw down the dup-ACK budget.
	isNew := cum > s.cumAck
	for i := 0; i < nr && !isNew; i++ {
		for seq := max(ranges[i].Lo, s.cumAck); seq < ranges[i].Hi; seq++ {
			if !s.IsAcked(seq) {
				isNew = true
				break
			}
		}
	}
	if !isNew {
		v.dupAcks++
		if v.dupAcks > dupAckBudgetBase+dupAckBudgetPerSend*dataSent {
			return MisbehaviorDupAckFlood
		}
		return MisbehaviorNone
	}
	expect := v.foldTo(cum)
	for i := 0; i < nr; i++ {
		expect ^= v.foldRange(ranges[i].Lo, ranges[i].Hi)
	}
	if pkt.Nonce != expect {
		return MisbehaviorNonceMismatch
	}
	return MisbehaviorNone
}
