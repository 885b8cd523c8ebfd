package experiment

import (
	"math"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// The theory suite checks the model against first principles rather
// than against its own goldens: each check is a universe small enough
// that its outcome can be derived by hand, and the expected value is
// computed here from that derivation, not recorded from a run.
//
// The path is lossless and fast enough that serialization is noise:
// 1 Gbit/s puts a 1,500-byte segment on the wire in 12 µs, and the
// 1 MiB buffer never fills. A 100 KB fetch is 69 segments.

const (
	theoryRTT   = 100 * sim.Millisecond
	theoryBytes = 100_000
)

// theoryFetch runs one 100 KB fetch of the named scheme over the
// lossless theory path and checks the path stayed lossless.
func theoryFetch(t *testing.T, name string) *transport.FlowStats {
	t.Helper()
	cfg := netem.PathConfig{RateBps: 1000 * netem.Mbps, RTT: theoryRTT, BufferBytes: 1 << 20}
	st := NewPathSim(1, cfg).FetchOnce(scheme.MustNew(name), theoryBytes, 60*sim.Second)
	if !st.Completed {
		t.Fatalf("%s: 100 KB fetch on a lossless path did not complete: %+v", name, st)
	}
	if st.HandshakeRetx != 0 || st.NormalRetx != 0 || st.Timeouts != 0 {
		t.Fatalf("%s: lossless path saw SYN retx=%d retx=%d timeouts=%d",
			name, st.HandshakeRetx, st.NormalRetx, st.Timeouts)
	}
	return st
}

// slowStartRounds is how many round trips a window of iw segments that
// doubles every round needs to send n segments.
func slowStartRounds(iw, n int) int {
	rounds := 0
	for sent, w := 0, iw; sent < n; w *= 2 {
		sent += w
		rounds++
	}
	return rounds
}

// TestTheoryLosslessFCT checks each scheme's flow completion time, in
// base RTTs, against its closed form. Every scheme spends one RTT on
// the handshake before data flows, and the last segment needs half an
// RTT to reach the receiver once it leaves.
//
//   - Slow start from iw segments sends round r (r = 1, 2, …) at
//     handshake + (r−1) RTTs; the flow ends ½ RTT after its last round
//     leaves. TCP and TCP-Cache (a fresh universe has nothing cached)
//     start at 2 segments: rounds of 2, 4, 8, 16 and 32 carry 62, and a
//     sixth carries the 7 left over, so 1 + 5 + ½ = 6.5. TCP-10 sends
//     rounds of 10, 20 and 39: 1 + 2 + ½ = 3.5.
//   - JumpStart and Halfback pace the whole flow over the handshake
//     RTT (paper §3): segment i of n leaves i/n RTT after the
//     handshake, so the last leaves at (n−1)/n and the flow ends at
//     1 + 68/69 + ½ ≈ 2.486.
func TestTheoryLosslessFCT(t *testing.T) {
	n := netem.SegmentsFor(theoryBytes)
	if n != 69 {
		t.Fatalf("100 KB is %d segments, the derivations below assume 69", n)
	}
	slowStart := func(iw int) float64 { return 1 + float64(slowStartRounds(iw, n)-1) + 0.5 }
	paced := 1 + float64(n-1)/float64(n) + 0.5
	for _, c := range []struct {
		name string
		want float64
	}{
		{scheme.TCP, slowStart(2)},
		{scheme.TCPCache, slowStart(2)},
		{scheme.TCP10, slowStart(10)},
		{scheme.JumpStart, paced},
		{scheme.Halfback, paced},
	} {
		st := theoryFetch(t, c.name)
		got := float64(st.FCT()) / float64(theoryRTT)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("%s: lossless FCT %.4f RTTs, theory %.4f", c.name, got, c.want)
		}
	}
}

// TestTheoryTransmissionBudgets checks the data packets each redundant
// scheme sends on a lossless path against its budget. Proactive sends
// every segment twice: 2n. Halfback paces n segments over the first
// RTT, so the ACK of segment j returns j/n RTT after pacing ends; each
// ACK releases one reverse-order proactive copy, of segment n−1−j,
// while that segment is still unacknowledged (n−1−j > j). That is
// ⌊n/2⌋ copies, n + ⌊n/2⌋ = 103 packets for n = 69, inside the paper's
// 1.5× bound.
func TestTheoryTransmissionBudgets(t *testing.T) {
	n := int64(netem.SegmentsFor(theoryBytes))
	if got, want := theoryFetch(t, scheme.Proactive).DataPktsSent, 2*n; got != want {
		t.Errorf("Proactive sent %d data packets for %d segments, theory %d", got, n, want)
	}
	want := n + n/2
	if 2*want > 3*n {
		t.Fatalf("theory's %d packets exceed 1.5 × %d", want, n)
	}
	if got := theoryFetch(t, scheme.Halfback).DataPktsSent; got != want {
		t.Errorf("Halfback sent %d data packets for %d segments, theory %d", got, n, want)
	}
}

// TestTheoryWireBudgetAtExhibitScale checks the transmission budgets
// above over the ~220 flows of a Fig. 12 capacity cell at 10 % load and
// its 120 s horizon: the bottleneck's busy share, divided by the payload
// load the cell's arrivals offer, is the wire bytes the bottleneck
// serialized per payload byte. A flow that keeps its budget puts
// budget × n segments of SegmentSize bytes on the wire per
// n × SegmentPayload payload bytes, so the ratio is the budget (1 for
// TCP, 103/69 for Halfback, 2 for Proactive) × 1500/1460.
//
// Tolerance: one packet per flow, i.e. 1/(budget × n) relative. The
// budgets are derived for a flow alone on a lossless path; here flows
// overlap in the bottleneck queue, so a late ACK can release an extra
// ROPR copy or an overflow cost a retransmission (and a dropped copy is
// never serialized). The framing the budget rounds away, the short last
// segment (720 payload bytes in 760 on the wire) and the handshake's
// 40-byte control packet, is about 60 bytes per flow, well inside one
// 1,500-byte packet. The allowance is 1.45 % for TCP, 0.97 % for
// Halfback and 0.72 % for Proactive.
func TestTheoryWireBudgetAtExhibitScale(t *testing.T) {
	n := float64(netem.SegmentsFor(PlanetLabFlowBytes))
	for _, c := range []struct {
		name    string
		packets float64 // the budget × n data packets per flow
	}{
		{scheme.TCP, n},
		{scheme.Halfback, n + math.Floor(n/2)},
		{scheme.Proactive, 2 * n},
	} {
		s, _ := capacityCell(1, c.name, 0.10, capacityHorizon).run()
		var payload int
		for _, conn := range s.Conns() {
			payload += conn.Stats.FlowBytes
		}
		bottleneck := s.D.Bottleneck
		offered := float64(8*payload) / (float64(bottleneck.RateBps) * capacityHorizon.Seconds())
		got := bottleneck.Utilization(capacityHorizon) / offered
		want := c.packets / n * netem.SegmentSize / netem.SegmentPayload
		if tol := 1 / c.packets; math.Abs(got/want-1) > tol {
			t.Errorf("%s: busy share ÷ offered load = %.4f over %d flows, theory %.4f ± %.2f %%",
				c.name, got, len(s.Conns()), want, tol*100)
		}
		t.Logf("%s: busy share ÷ offered load = %.4f over %d flows, theory %.4f", c.name, got, len(s.Conns()), want)
	}
}
