package netem

import (
	"testing"

	"halfback/internal/sim"
)

// floodWorld saturates a 1 Mbps link from a 100 Mbps source so a standing
// queue forms, and returns the link after `dur` of virtual time.
func floodWorld(t *testing.T, disc QueueDiscipline, dur sim.Duration) (*Link, int) {
	t.Helper()
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	link := net.AddLink(a, b, LinkConfig{RateBps: 1 * Mbps, Delay: sim.Millisecond, BufferCap: 200_000})
	link.Discipline = disc
	net.ComputeRoutes()
	delivered := 0
	b.Deliver = func(pkt *Packet, now sim.Time) { delivered++ }
	// Offer 2 Mbps into a 1 Mbps link: 1500 B every 6 ms.
	var offer sim.EventFunc
	i := int32(0)
	offer = func(now sim.Time, _ any) {
		net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: i, Size: 1500}, now)
		i++
		if now < sim.Time(dur) {
			sched.AfterFunc(6*sim.Millisecond, offer, nil)
		}
	}
	sched.AtFunc(0, offer, nil)
	sched.RunUntil(sim.Time(dur) + sim.Time(sim.Second))
	return link, delivered
}

func TestCoDelBoundsStandingQueue(t *testing.T) {
	dt, _ := floodWorld(t, DropTail, 10*sim.Second)
	cd, _ := floodWorld(t, CoDel, 10*sim.Second)
	if cd.Stats.AQMDrops == 0 {
		t.Fatal("CoDel never dropped under persistent overload")
	}
	if dt.Stats.AQMDrops != 0 {
		t.Fatal("drop-tail must not early-drop")
	}
	// The point of CoDel: the queue stays below drop-tail's, which
	// fills the whole 200 KB buffer. (CoDel's control law ramps its
	// drop rate slowly, so the high-water mark includes the initial
	// convergence excursion; steady state is far lower.)
	if !(cd.Stats.MaxQueueByte < dt.Stats.MaxQueueByte*3/4) {
		t.Fatalf("CoDel high-water %d vs drop-tail %d — queue not controlled",
			cd.Stats.MaxQueueByte, dt.Stats.MaxQueueByte)
	}
	if cd.QueuedBytes() > 30_000 {
		t.Fatalf("CoDel steady-state queue %d bytes — should be near-empty", cd.QueuedBytes())
	}
}

func TestCoDelIdleBelowTarget(t *testing.T) {
	// A link running below capacity never exceeds the target sojourn,
	// so CoDel must drop nothing.
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	link := net.AddLink(a, b, LinkConfig{RateBps: 10 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20})
	link.Discipline = CoDel
	net.ComputeRoutes()
	b.Deliver = func(*Packet, sim.Time) {}
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * sim.Time(5*sim.Millisecond) // 2.4 Mbps offered
		seq := int32(i)
		sched.AtFunc(at, func(now sim.Time, _ any) {
			net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 1500}, now)
		}, nil)
	}
	sched.Run()
	if link.Stats.AQMDrops != 0 {
		t.Fatalf("CoDel dropped %d packets on an uncongested link", link.Stats.AQMDrops)
	}
}

func TestREDEarlyDropsRampWithQueue(t *testing.T) {
	rd, _ := floodWorld(t, RED, 10*sim.Second)
	if rd.Stats.AQMDrops == 0 {
		t.Fatal("RED never early-dropped under persistent overload")
	}
	// RED keeps the average queue between its thresholds: high-water
	// below the hard cap.
	if rd.Stats.MaxQueueByte >= 200_000 {
		t.Fatal("RED let the queue fill to the hard bound")
	}
}

func TestDisciplineString(t *testing.T) {
	if DropTail.String() != "droptail" || CoDel.String() != "codel" ||
		RED.String() != "red" || QueueDiscipline(9).String() != "unknown" {
		t.Fatal("discipline names")
	}
}

func TestInvSqrtAccuracy(t *testing.T) {
	cases := map[int]float64{1: 1, 4: 0.5, 16: 0.25, 100: 0.1}
	for n, want := range cases {
		got := invSqrt(n)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("invSqrt(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestCoDelConservationStillHolds(t *testing.T) {
	link, delivered := floodWorld(t, CoDel, 5*sim.Second)
	total := int(link.Stats.Transmitted)
	if delivered != total {
		t.Fatalf("delivered %d != transmitted %d", delivered, total)
	}
	accepted := int(link.Stats.Enqueued)
	dropped := int(link.Stats.AQMDrops)
	if accepted != delivered+dropped {
		t.Fatalf("enqueued %d != delivered %d + aqm-dropped %d", accepted, delivered, dropped)
	}
}
