package netem

import (
	"testing"
	"testing/quick"

	"halfback/internal/sim"
)

// TestPacketConservation: for random topologies-of-one-link and random
// injection schedules, every packet is either delivered or dropped —
// none vanish, none duplicate.
func TestPacketConservation(t *testing.T) {
	f := func(seed uint64, nPkts uint8, bufKB uint8, lossPct uint8) bool {
		sched := sim.NewScheduler()
		net := NewNetwork(sched, sim.NewRand(seed))
		a := net.AddNode("a")
		b := net.AddNode("b")
		link := net.AddLink(a, b, LinkConfig{
			RateBps:   5 * Mbps,
			Delay:     2 * sim.Millisecond,
			BufferCap: (int(bufKB)%64 + 1) * 1024,
			LossProb:  float64(lossPct%30) / 100,
		})
		net.ComputeRoutes()
		delivered := 0
		b.Deliver = func(pkt *Packet, now sim.Time) { delivered++ }

		n := int(nPkts)%200 + 1
		rng := sim.NewRand(seed ^ 0xabc)
		for i := 0; i < n; i++ {
			at := sim.Time(rng.Intn(50)) * sim.Time(sim.Millisecond)
			seq := int32(i)
			sched.AtFunc(at, func(now sim.Time, _ any) {
				net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 1000}, now)
			}, nil)
		}
		sched.Run()
		lost := int(link.Stats.Dropped + link.Stats.RandomLosses)
		return delivered+lost == n && int(link.Stats.Transmitted) == delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOOrderProperty: whatever the arrival pattern, a link never
// reorders packets.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(seed uint64, nPkts uint8) bool {
		sched := sim.NewScheduler()
		net := NewNetwork(sched, sim.NewRand(seed))
		a := net.AddNode("a")
		b := net.AddNode("b")
		net.AddLink(a, b, LinkConfig{RateBps: 1 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20})
		net.ComputeRoutes()
		last := int32(-1)
		ok := true
		b.Deliver = func(pkt *Packet, now sim.Time) {
			if pkt.Seq <= last {
				ok = false
			}
			last = pkt.Seq
		}
		n := int(nPkts)%100 + 2
		for i := 0; i < n; i++ {
			seq := int32(i)
			at := sim.Time(i) * sim.Time(100*sim.Microsecond)
			sched.AtFunc(at, func(now sim.Time, _ any) {
				net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 500}, now)
			}, nil)
		}
		sched.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueNeverExceedsCapacity samples the queue during a heavy burst.
func TestQueueNeverExceedsCapacity(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	const capBytes = 10_000
	link := net.AddLink(a, b, LinkConfig{RateBps: 1 * Mbps, Delay: 0, BufferCap: capBytes})
	net.ComputeRoutes()
	b.Deliver = func(*Packet, sim.Time) {}
	for i := 0; i < 500; i++ {
		net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: int32(i), Size: 999}, 0)
		if link.QueuedBytes() > capBytes {
			t.Fatalf("queue %d exceeds capacity %d", link.QueuedBytes(), capBytes)
		}
	}
	sched.Run()
	if link.Stats.MaxQueueByte > capBytes {
		t.Fatalf("high-water %d exceeds capacity", link.Stats.MaxQueueByte)
	}
}
