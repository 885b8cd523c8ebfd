package netem

import (
	"testing"

	"halfback/internal/sim"
)

// twoNodeNet builds a minimal a→b network with the given link config and
// a capture sink at b.
func twoNodeNet(t *testing.T, cfg LinkConfig) (*sim.Scheduler, *Network, *Node, *Node, *[]arrival) {
	t.Helper()
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddLink(a, b, cfg)
	net.ComputeRoutes()
	var got []arrival
	b.Deliver = func(pkt *Packet, now sim.Time) {
		got = append(got, arrival{pkt, now})
	}
	return sched, net, a, b, &got
}

type arrival struct {
	pkt *Packet
	at  sim.Time
}

func mkPkt(src, dst NodeID, seq int32, size int) *Packet {
	return &Packet{Kind: KindData, Src: src, Dst: dst, Seq: seq, Size: size}
}

func TestLinkDeliveryTiming(t *testing.T) {
	cfg := LinkConfig{RateBps: 8_000_000, Delay: 10 * sim.Millisecond, BufferCap: 1 << 20}
	sched, net, a, b, got := twoNodeNet(t, cfg)
	// 1000 bytes at 8 Mbit/s = 1 ms serialization + 10 ms propagation.
	net.Inject(mkPkt(a.ID, b.ID, 0, 1000), 0)
	sched.Run()
	if len(*got) != 1 {
		t.Fatalf("want 1 arrival, got %d", len(*got))
	}
	want := sim.Time(11 * sim.Millisecond)
	if (*got)[0].at != want {
		t.Fatalf("arrival at %v, want %v", (*got)[0].at, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	cfg := LinkConfig{RateBps: 8_000_000, Delay: 0, BufferCap: 1 << 20}
	sched, net, a, b, got := twoNodeNet(t, cfg)
	for i := int32(0); i < 3; i++ {
		net.Inject(mkPkt(a.ID, b.ID, i, 1000), 0)
	}
	sched.Run()
	if len(*got) != 3 {
		t.Fatalf("want 3 arrivals, got %d", len(*got))
	}
	// Each packet serializes in 1 ms; arrivals at 1, 2, 3 ms.
	for i, ar := range *got {
		want := sim.Time(sim.Duration(i+1) * sim.Millisecond)
		if ar.at != want {
			t.Fatalf("arrival %d at %v, want %v", i, ar.at, want)
		}
		if ar.pkt.Seq != int32(i) {
			t.Fatalf("FIFO violated: arrival %d has seq %d", i, ar.pkt.Seq)
		}
	}
}

func TestDropTailOverflow(t *testing.T) {
	// Queue capacity of 2500 bytes: two 1000-byte packets queue while a
	// third is on the wire... we fill precisely: first Send starts
	// transmitting immediately (leaves the queue), so capacity bounds
	// the *waiting* packets only.
	cfg := LinkConfig{RateBps: 8_000_000, Delay: 0, BufferCap: 2500}
	sched, net, a, b, got := twoNodeNet(t, cfg)
	link := net.Links()[0]
	for i := int32(0); i < 5; i++ {
		net.Inject(mkPkt(a.ID, b.ID, i, 1000), 0)
	}
	sched.Run()
	// Packet 0 transmits immediately; packets 1 and 2 fit in the
	// 2500-byte queue; 3 and 4 drop.
	if len(*got) != 3 {
		t.Fatalf("want 3 delivered, got %d", len(*got))
	}
	if link.Stats.Dropped != 2 {
		t.Fatalf("want 2 drops, got %d", link.Stats.Dropped)
	}
	if net.DroppedTotal != 2 {
		t.Fatalf("network drop counter: %d", net.DroppedTotal)
	}
}

func TestDropTailByteAccounting(t *testing.T) {
	cfg := LinkConfig{RateBps: 8_000, Delay: 0, BufferCap: 3000}
	sched, net, a, b, _ := twoNodeNet(t, cfg)
	link := net.Links()[0]
	_ = b
	// Slow link: everything queues. 1 transmitting + 2×1400 = 2800 in
	// queue; a 400-byte packet still fits (3200 > 3000? no: 2800+400 =
	// 3200 > 3000 → drop), but a 100-byte one fits.
	net.Inject(mkPkt(a.ID, b.ID, 0, 1400), 0)
	net.Inject(mkPkt(a.ID, b.ID, 1, 1400), 0)
	net.Inject(mkPkt(a.ID, b.ID, 2, 1400), 0)
	if link.QueuedBytes() != 2800 {
		t.Fatalf("queued bytes %d, want 2800", link.QueuedBytes())
	}
	if ok := link.Send(mkPkt(a.ID, b.ID, 3, 400), sched.Now()); ok {
		t.Fatal("400B packet should overflow the 3000B queue")
	}
	if ok := link.Send(mkPkt(a.ID, b.ID, 4, 100), sched.Now()); !ok {
		t.Fatal("100B packet should fit")
	}
	if link.Stats.MaxQueueByte != 2900 {
		t.Fatalf("high-water mark %d, want 2900", link.Stats.MaxQueueByte)
	}
}

func TestRandomLoss(t *testing.T) {
	cfg := LinkConfig{RateBps: 1_000_000_000, Delay: 0, BufferCap: 1 << 24, LossProb: 0.3}
	sched, net, a, b, got := twoNodeNet(t, cfg)
	link := net.Links()[0]
	const n = 20000
	for i := int32(0); i < n; i++ {
		net.Inject(mkPkt(a.ID, b.ID, i, 100), 0)
	}
	sched.Run()
	lossRate := float64(link.Stats.RandomLosses) / n
	if lossRate < 0.27 || lossRate > 0.33 {
		t.Fatalf("loss rate %v, want ≈0.3", lossRate)
	}
	if len(*got)+int(link.Stats.RandomLosses) != n {
		t.Fatal("delivered + lost != injected")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	cfg := LinkConfig{RateBps: 8_000_000, Delay: 0, BufferCap: 1 << 20}
	sched, net, a, b, _ := twoNodeNet(t, cfg)
	// 10 packets × 1 ms serialization each = 10 ms busy.
	for i := int32(0); i < 10; i++ {
		net.Inject(mkPkt(a.ID, b.ID, i, 1000), 0)
	}
	sched.RunUntil(sim.Time(20 * sim.Millisecond))
	link := net.Links()[0]
	util := link.Utilization(20 * sim.Millisecond)
	if util < 0.49 || util > 0.51 {
		t.Fatalf("utilization %v, want 0.5", util)
	}
	if link.Stats.BytesTx != 10000 {
		t.Fatalf("bytes tx %d", link.Stats.BytesTx)
	}
}

func TestRoutingAcrossRouter(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	r := net.AddNode("r")
	b := net.AddNode("b")
	cfg := LinkConfig{RateBps: 1_000_000_000, Delay: sim.Millisecond, BufferCap: 1 << 20}
	net.Connect(a, r, cfg)
	net.Connect(r, b, cfg)
	net.ComputeRoutes()
	var deliveredAt sim.Time
	b.Deliver = func(pkt *Packet, now sim.Time) { deliveredAt = now }
	net.Inject(mkPkt(a.ID, b.ID, 0, 125), 0)
	sched.Run()
	// Two hops: 2×(1µs serialization + 1ms propagation).
	want := sim.Time(2*sim.Millisecond + 2*sim.Microsecond)
	if deliveredAt != want {
		t.Fatalf("two-hop delivery at %v, want %v", deliveredAt, want)
	}
}

func TestNoRoutePanics(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b") // not connected
	net.ComputeRoutes()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unroutable packet")
		}
	}()
	net.Inject(mkPkt(a.ID, b.ID, 0, 100), 0)
}

func TestDumbbellTopology(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDumbbell(sched, sim.NewRand(1), DumbbellConfig{Pairs: 3})
	if len(d.Senders) != 3 || len(d.Receivers) != 3 {
		t.Fatal("wrong host count")
	}
	if d.Bottleneck.RateBps != 15*Mbps {
		t.Fatalf("default bottleneck %d", d.Bottleneck.RateBps)
	}
	if d.Bottleneck.BufferCap != 115000 {
		t.Fatalf("default buffer %d", d.Bottleneck.BufferCap)
	}
	// Forward path sender 0 → receiver 0 crosses the bottleneck.
	var at sim.Time
	d.Receivers[0].Deliver = func(pkt *Packet, now sim.Time) { at = now }
	d.Senders[0].Deliver = func(pkt *Packet, now sim.Time) {}
	d.Net.Inject(mkPkt(d.Senders[0].ID, d.Receivers[0].ID, 0, SegmentSize), 0)
	sched.Run()
	// One-way propagation is RTT/2 = 30 ms, plus serialization.
	if at < sim.Time(30*sim.Millisecond) || at > sim.Time(32*sim.Millisecond) {
		t.Fatalf("one-way delivery at %v, want ≈30ms", at)
	}
	if tx := d.Bottleneck.Stats.Transmitted; tx != 1 {
		t.Fatalf("bottleneck should carry the packet, tx=%d", tx)
	}
}

func TestDumbbellBDP(t *testing.T) {
	cfg := DumbbellConfig{}
	// 15 Mbps × 60 ms = 112.5 KB.
	if bdp := cfg.BDP(); bdp != 112500 {
		t.Fatalf("BDP %d, want 112500", bdp)
	}
}

func TestPathTopology(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewPath(sched, sim.NewRand(1), PathConfig{
		RateBps: 10 * Mbps, RTT: 100 * sim.Millisecond, BufferBytes: 64 << 10,
		UpRateBps: 1 * Mbps,
	})
	if p.Forward.RateBps != 1*Mbps {
		t.Fatalf("upload direction should use UpRateBps, got %d", p.Forward.RateBps)
	}
	if p.Back.RateBps != 10*Mbps {
		t.Fatalf("download direction %d", p.Back.RateBps)
	}
	var at sim.Time
	p.Client.Deliver = func(pkt *Packet, now sim.Time) { at = now }
	p.Net.Inject(mkPkt(p.Server.ID, p.Client.ID, 0, 1250), 0)
	sched.Run()
	// 1250 B at 10 Mbps = 1 ms serialization + 50 ms propagation.
	want := sim.Time(51 * sim.Millisecond)
	if at != want {
		t.Fatalf("server→client delivery at %v, want %v", at, want)
	}
}

func TestSegmentsFor(t *testing.T) {
	cases := []struct {
		bytes, want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {SegmentPayload, 1}, {SegmentPayload + 1, 2},
		{100_000, 69}, {141_000, 97},
	}
	for _, c := range cases {
		if got := SegmentsFor(c.bytes); got != c.want {
			t.Errorf("SegmentsFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestSeqRange(t *testing.T) {
	r := SeqRange{Lo: 5, Hi: 10}
	if r.Empty() {
		t.Fatal("non-empty range")
	}
	if !r.Contains(5) || !r.Contains(9) || r.Contains(10) || r.Contains(4) {
		t.Fatal("Contains boundaries wrong")
	}
	if !(SeqRange{Lo: 7, Hi: 7}).Empty() {
		t.Fatal("empty range not detected")
	}
}

func TestPacketKindString(t *testing.T) {
	kinds := map[PacketKind]string{
		KindData: "DATA", KindAck: "ACK", KindSYN: "SYN",
		KindSYNACK: "SYNACK", KindProbe: "PROBE", KindProbeAck: "PROBEACK",
		PacketKind(99): "UNKNOWN",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestLoopbackDelivery(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	got := 0
	a.Deliver = func(pkt *Packet, now sim.Time) { got++ }
	net.ComputeRoutes()
	net.Inject(mkPkt(a.ID, a.ID, 0, 100), 0)
	if got != 1 {
		t.Fatal("loopback packet not delivered immediately")
	}
}
