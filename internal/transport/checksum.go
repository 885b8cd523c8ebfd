package transport

import "halfback/internal/netem"

// Payload integrity. The simulator never materializes flow bytes — a
// segment's "payload" is modelled as the output of a pseudorandom
// function of (flow, seq, size), and its checksum is therefore a pure
// function too. Senders stamp PayloadSum on every data segment; link
// corruption flips a bit of it in flight; receivers recompute and
// discard mismatches, so a corrupted segment surfaces to the transport
// as a loss, never as wrong data. XOR-folding the sums of all distinct
// segments gives an order-independent whole-flow digest: the receiver's
// fold equals the sender's expectation iff every byte arrived intact
// and no segment was delivered to the application twice (an XOR fold
// cancels pairs, so a double delivery is as visible as a gap).

// PayloadSum returns the checksum of the pseudorandom payload of
// segment (flow, seq) at the given wire size. SplitMix64 finalizer over
// the three coordinates: cheap, stateless, and a single flipped input
// bit changes ~half the output bits.
func PayloadSum(flow netem.FlowID, seq int32, size int) uint64 {
	x := uint64(flow)*0x9e3779b97f4a7c15 ^
		uint64(uint32(seq))*0xbf58476d1ce4e5b9 ^
		uint64(uint32(size))*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ExpectedPayloadSum returns the XOR fold of every segment's checksum —
// what Stats.PayloadSumRecv must equal once the receiver holds the
// whole flow exactly once.
func (c *Conn) ExpectedPayloadSum() uint64 {
	var sum uint64
	for seq := int32(0); seq < c.numSegs; seq++ {
		sum ^= PayloadSum(c.ID, seq, c.SegmentSize(seq))
	}
	return sum
}
