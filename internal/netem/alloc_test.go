package netem

import (
	"testing"

	"halfback/internal/sim"
)

// buildForwardingWorld wires a->r->b (two hops, so the store-and-forward
// path — enqueue, serialize, propagate, route — is fully exercised).
func buildForwardingWorld() (*sim.Scheduler, *Network, *Node, *Node) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	r := net.AddNode("r")
	b := net.AddNode("b")
	cfg := LinkConfig{RateBps: 100 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20}
	net.AddLink(a, r, cfg)
	net.AddLink(r, b, cfg)
	net.ComputeRoutes()
	return sched, net, a, b
}

// TestLinkForwardingZeroAlloc pins the steady-state store-and-forward
// path at zero allocations per packet: pool-allocated packet in, two
// hops of serialization and propagation, final delivery releases it
// back to the pool.
func TestLinkForwardingZeroAlloc(t *testing.T) {
	sched, net, a, b := buildForwardingWorld()
	delivered := 0
	b.Deliver = func(pkt *Packet, now sim.Time) { delivered++ }

	send := func() {
		pkt := net.NewPacket()
		pkt.Kind, pkt.Src, pkt.Dst, pkt.Size = KindData, a.ID, b.ID, SegmentSize
		net.Inject(pkt, sched.Now())
		sched.Run()
	}
	for i := 0; i < 16; i++ { // warm pool, heap and queue capacity
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("store-and-forward allocated %.1f allocs/op, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestPacketPoolRecycles: a released pool packet is handed out again,
// zeroed; literal packets pass through release untouched and are never
// pooled.
func TestPacketPoolRecycles(t *testing.T) {
	sched, net, a, b := buildForwardingWorld()
	b.Deliver = func(pkt *Packet, now sim.Time) {}

	p1 := net.NewPacket()
	p1.Kind, p1.Src, p1.Dst, p1.Size = KindData, a.ID, b.ID, 1000
	p1.Seq, p1.CumAck, p1.NumSACK = 42, 7, 2
	net.Inject(p1, sched.Now())
	sched.Run()

	p2 := net.NewPacket()
	if p2 != p1 {
		t.Fatal("pool did not recycle the delivered packet")
	}
	if p2.Seq != 0 || p2.CumAck != 0 || p2.NumSACK != 0 || p2.Size != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", p2)
	}

	// A literal packet must not enter the pool on release.
	lit := &Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Size: 1000}
	net.Inject(lit, sched.Now())
	sched.Run()
	p3 := net.NewPacket()
	if p3 == lit {
		t.Fatal("literal packet was recycled into the pool")
	}
}

// TestDroppedPacketsReturnToPool: drops (queue overflow here) must
// release pooled packets just like deliveries — otherwise lossy runs
// leak the pool's benefit.
func TestDroppedPacketsReturnToPool(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	link := net.AddLink(a, b, LinkConfig{RateBps: 1 * Mbps, Delay: 0, BufferCap: 3000})
	net.ComputeRoutes()
	b.Deliver = func(*Packet, sim.Time) {}

	distinct := map[*Packet]bool{}
	for i := 0; i < 10; i++ {
		pkt := net.NewPacket()
		distinct[pkt] = true
		pkt.Kind, pkt.Src, pkt.Dst, pkt.Size = KindData, a.ID, b.ID, 1500
		pkt.Seq = int32(i)
		net.Inject(pkt, 0)
	}
	if link.Stats.Dropped == 0 {
		t.Fatal("test setup: expected queue overflow drops")
	}
	// Synchronous drops recycle immediately, so later injections reuse
	// earlier packets: far fewer than 10 distinct packets should exist.
	if len(distinct) == 10 {
		t.Fatal("drops did not recycle packets back into the pool")
	}
	sched.Run()
	// After the run every distinct packet — delivered or dropped — is
	// back in the pool.
	if got := len(net.pktFree); got != len(distinct) {
		t.Fatalf("pool holds %d packets after run, want %d", got, len(distinct))
	}
}

// TestPathResetReclaimsAndClears: Reset on a path abandoned mid-transfer
// (packets queued, one being serialized, others propagating in the
// arrival ring) returns every one of them to the free list zeroed, and
// leaves nothing of the previous use: counters, hooks, discipline,
// adversity and the TxTime memo are gone, the links carry the new
// configuration, and both draw the loss sequence a new path would.
func TestPathResetReclaimsAndClears(t *testing.T) {
	old := PathConfig{RateBps: 1 * Mbps, RTT: 40 * sim.Millisecond, BufferBytes: 1 << 20, LossProb: 0.1}
	sched := sim.NewScheduler()
	p := NewPath(sched, sim.NewRand(7), old)
	p.Client.Deliver = func(*Packet, sim.Time) {}
	p.Net.Trace = func(TraceEvent) {}
	p.Back.Discipline = CoDel
	p.Forward.SetAdversity(MustAdversityPreset("torture"))

	distinct := map[*Packet]bool{}
	for i := 0; i < 40; i++ {
		pkt := p.Net.NewPacket()
		distinct[pkt] = true
		pkt.Kind, pkt.Src, pkt.Dst, pkt.Size, pkt.Seq = KindData, p.Server.ID, p.Client.ID, SegmentSize, int32(i)
		p.Net.Inject(pkt, sched.Now())
	}
	sched.RunUntil(sim.Time(30 * sim.Millisecond))
	if p.Back.qLen == 0 || p.Back.txPkt == nil || p.Back.arrLen == 0 {
		t.Fatalf("test setup: want packets queued, serializing and propagating; queue=%d tx=%v ring=%d",
			p.Back.qLen, p.Back.txPkt != nil, p.Back.arrLen)
	}
	held := p.Back.qLen + p.Back.arrLen + 1 + len(p.Net.pktFree)

	cfg := PathConfig{RateBps: 8 * Mbps, UpRateBps: 2 * Mbps, RTT: 10 * sim.Millisecond, BufferBytes: 5000, LossProb: 0.3}
	sched.Reset()
	p.Reset(sched, sim.NewRand(9), cfg)
	fresh := NewPath(sim.NewScheduler(), sim.NewRand(9), cfg)

	if got := len(p.Net.pktFree); got != held {
		t.Fatalf("free list holds %d packets after Reset, want %d", got, held)
	}
	for _, pkt := range p.Net.pktFree {
		if *pkt != (Packet{pooled: true}) {
			t.Fatalf("reclaimed packet not zeroed: %+v", pkt)
		}
	}
	if n := p.Net; n.InjectedTotal|n.DeliveredTotal|n.DroppedTotal|n.DuplicatedTotal != 0 || n.Trace != nil {
		t.Fatalf("network counters or tracer survived Reset: %+v", n)
	}
	if p.Client.Deliver != nil || p.Server.Deliver != nil {
		t.Fatal("Deliver handler survived Reset")
	}
	if p.Config() != fresh.Config() {
		t.Fatalf("config %+v, want %+v", p.Config(), fresh.Config())
	}
	for i, l := range p.Net.Links() {
		f := fresh.Net.Links()[i]
		if l.RateBps != f.RateBps || l.Delay != f.Delay || l.BufferCap != f.BufferCap || l.LossProb != f.LossProb {
			t.Fatalf("%s: configuration %v, want %v", l.Name(), l, f)
		}
		if l.Stats != (LinkStats{}) || l.Discipline != DropTail || l.codel != (codelState{}) || l.red != (redState{}) ||
			l.Adversity().Enabled() || l.advRng != nil || l.Down() ||
			l.qLen != 0 || l.arrLen != 0 || l.txPkt != nil || l.busy || l.queuedByte != 0 {
			t.Fatalf("%s: state of the previous use survived Reset: %+v", l.Name(), l)
		}
		if l.TxTime(SegmentSize) != f.TxTime(SegmentSize) {
			t.Fatalf("%s: TxTime memo survived a rate change", l.Name())
		}
		for k := 0; k < 64; k++ {
			if a, b := l.rng.Uint64(), f.rng.Uint64(); a != b {
				t.Fatalf("%s: loss stream diverges from a new path's at draw %d", l.Name(), k)
			}
		}
	}
}
