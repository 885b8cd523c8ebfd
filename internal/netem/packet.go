// Package netem models the network: packets, rate/delay links with
// drop-tail queues, hosts and routers with static routing, and the
// single-bottleneck dumbbell topology used throughout the paper's Emulab
// evaluation (Fig. 4). It is a deterministic, event-driven emulation built
// on internal/sim.
package netem

import "halfback/internal/sim"

// NodeID identifies a node in a Network.
type NodeID int

// FlowID identifies a transport connection end-to-end. Flow IDs are
// allocated by the transport layer and are unique within one simulation.
type FlowID int64

// PacketKind distinguishes the packet types the transport substrate
// exchanges. Kinds exist so instrumentation can classify traffic; the
// network itself treats all kinds identically.
type PacketKind uint8

const (
	// KindData carries flow payload segments.
	KindData PacketKind = iota
	// KindAck carries cumulative + selective acknowledgement state.
	KindAck
	// KindSYN opens a connection (first half of the handshake).
	KindSYN
	// KindSYNACK completes the handshake and carries the receiver's
	// advertised flow-control window.
	KindSYNACK
	// KindProbe is a PCP bandwidth-probe packet.
	KindProbe
	// KindProbeAck echoes probe arrival timing back to a PCP sender.
	KindProbeAck
)

// String renders the kind for traces and test failure messages.
func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindSYN:
		return "SYN"
	case KindSYNACK:
		return "SYNACK"
	case KindProbe:
		return "PROBE"
	case KindProbeAck:
		return "PROBEACK"
	default:
		return "UNKNOWN"
	}
}

// SeqRange is a half-open range [Lo,Hi) of segment sequence numbers, used
// for SACK blocks.
type SeqRange struct {
	Lo, Hi int32
}

// Contains reports whether seq falls inside the range.
func (r SeqRange) Contains(seq int32) bool { return seq >= r.Lo && seq < r.Hi }

// Empty reports whether the range covers no sequence numbers.
func (r SeqRange) Empty() bool { return r.Hi <= r.Lo }

// MaxSACKBlocks is how many selective-acknowledgement ranges an ACK can
// carry. The paper's UDT substrate uses full selective ACK state; three
// blocks (as in TCP SACK) plus the cumulative ACK is enough to convey it
// for the window sizes involved (141 KB = 95 segments).
const MaxSACKBlocks = 3

// Packet is the unit the network moves. Transport code obtains packets
// from Network.NewPacket (a per-Network free list) and hands them to
// Inject; the network releases a packet back to the pool at its final
// delivery or drop. No layer may retain a *Packet after its Deliver /
// OnDrop / Trace hook returns — observers that need the contents keep a
// copy (TraceEvent already does). Packets built with plain &Packet{}
// literals still work: the pool ignores them on release.
type Packet struct {
	Kind PacketKind
	Flow FlowID
	Src  NodeID
	Dst  NodeID

	// Seq is the segment sequence number for DATA packets (segment
	// index within the flow, starting at 0) and the probe index for
	// PROBE packets.
	Seq int32

	// Size is the on-the-wire size in bytes, including headers. The
	// paper uses 1500-byte segments "including the header" (§4.1).
	Size int

	// Retransmit marks any copy after the first of a given Seq, whether
	// reactive (loss-triggered) or proactive (ROPR / Proactive TCP).
	Retransmit bool
	// Proactive marks retransmissions sent before any loss signal
	// (ROPR, Proactive TCP duplicates). Normal retransmissions keep it
	// false so Fig. 5/10(b)'s "normal retransmission" counts can be
	// derived at the receiver.
	Proactive bool

	// CumAck is, for ACK packets, the lowest segment sequence number
	// the receiver has NOT yet received contiguously.
	CumAck int32
	// SACK carries up to MaxSACKBlocks ranges received beyond CumAck.
	SACK [MaxSACKBlocks]SeqRange
	// NumSACK is how many entries of SACK are valid.
	NumSACK int
	// AckedSeq is the sequence number of the data segment that
	// triggered this ACK (-1 if none); retransmission-aware senders use
	// it for ACK clocking.
	AckedSeq int32
	// RecvTotal is the receiver's count of data packets received so far
	// on this flow, letting senders detect duplicate deliveries.
	RecvTotal int32

	// Window is the advertised flow-control window in bytes, carried on
	// SYNACK packets.
	Window int

	// SentAt is stamped by the link layer when transmission begins,
	// for RTT sampling and tracing.
	SentAt sim.Time

	// Echo carries the transport-layer send timestamp, stamped once by
	// the sending endpoint (unlike SentAt, which each link restamps).
	// Receivers use it to measure end-to-end one-way delay; the
	// simulation has a single clock, standing in for the synchronized
	// timestamps a real deployment would approximate with TCP
	// timestamps.
	Echo sim.Time

	// OWD is the one-way delay measured by the receiver, echoed back on
	// PROBEACK packets for PCP's delay-trend test.
	OWD sim.Duration

	// PayloadSum is the end-to-end checksum of the packet's payload,
	// stamped by the sending transport for DATA segments (a pure
	// function of flow, seq and size — see transport.PayloadSum, which
	// models a pseudorandom payload without materializing bytes). Link
	// corruption flips a bit here; receivers recompute and discard on
	// mismatch, so corruption surfaces as loss, never as wrong data.
	PayloadSum uint64
	// Corrupted marks packets damaged in flight. Receiving stacks drop
	// corrupted control packets outright (the header-CRC analogue);
	// corrupted DATA reaches the endpoint and fails its payload
	// checksum there.
	Corrupted bool

	// Nonce is the anti-spoofing receipt proof. On DATA segments the
	// sender stamps an unguessable per-segment nonce (a keyed pure
	// function of flow and seq — see transport.AckValidator);
	// on ACKs the receiver echoes the XOR fold of the nonces of every
	// segment the ACK claims ([0,CumAck) plus all advertised SACK
	// ranges). A receiver that acknowledges data it never received
	// cannot produce the fold, which defeats optimistic ACKing and SACK
	// fabrication (Savage et al., CCR 1999).
	Nonce uint64

	// link is the wire currently propagating this packet; the arrival
	// event carries the packet itself, and reads the link from here
	// rather than from a closure.
	link *Link

	// pooled marks packets that came from a Network free list and may
	// be recycled on release. Literal &Packet{} packets stay unpooled.
	pooled bool
}

// DataHeaderBytes is the per-packet header overhead assumed for payload
// segments; SegmentSize already includes it (paper: "segment size is 1500
// bytes including the header").
const DataHeaderBytes = 40

// AckSize is the wire size of a pure acknowledgement.
const AckSize = 40

// ControlSize is the wire size of SYN/SYNACK handshake packets.
const ControlSize = 40

// SegmentSize is the paper's segment size: 1500 bytes including header.
const SegmentSize = 1500

// SegmentPayload is the payload carried per full segment.
const SegmentPayload = SegmentSize - DataHeaderBytes

// SegmentsFor returns how many segments a flow of the given byte size
// occupies.
func SegmentsFor(flowBytes int) int {
	if flowBytes <= 0 {
		return 0
	}
	return (flowBytes + SegmentPayload - 1) / SegmentPayload
}
