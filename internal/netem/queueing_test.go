package netem

import (
	"math"
	"testing"

	"halfback/internal/sim"
)

// mdOneSource injects fixed-size packets into a link's source node as a
// Poisson process until its horizon, stamping each with its injection
// instant in Echo.
type mdOneSource struct {
	net      *Network
	src, dst NodeID
	rng      *sim.Rand
	mean     sim.Duration // mean interarrival
	horizon  sim.Time
	injected int
}

func mdOneArrive(now sim.Time, arg any) {
	s := arg.(*mdOneSource)
	pkt := s.net.NewPacket()
	*pkt = Packet{Kind: KindData, Src: s.src, Dst: s.dst, Seq: int32(s.injected), Size: 1500, Echo: now, pooled: pkt.pooled}
	s.net.Inject(pkt, now)
	s.injected++
	if next := now.Add(s.rng.ExpDuration(s.mean)); next < s.horizon {
		s.net.sched.AtFunc(next, mdOneArrive, s)
	}
}

// TestMD1QueueMatchesTheory holds one link to M/D/1 queueing theory:
// Poisson arrivals of 1,500-byte packets onto a 10 Mbit/s link with an
// unbounded buffer and no loss. Service is deterministic, S =
// TxTime(1500), so the Pollaczek–Khinchine formula gives the mean wait
// before transmission begins, Wq = ρS / (2(1−ρ)), and the link is busy a
// share ρ of the time.
//
// Tolerances follow from the sample count. Each load injects about
// n = 40,000 packets. The utilization estimate is (packets × S) / horizon,
// whose relative standard error is that of a Poisson count, 1/√n
// (0.5 %). Successive waits are correlated, so the standard error of the
// mean wait comes from 20 batch means of consecutive packets. A batch of
// 2,000 packets spans about 75 relaxation times even of an M/M/1 queue at
// ρ = 0.7 (1/(μ(1−√ρ)²) ≈ 37.5 S, about 26 arrivals), which relaxes
// slower than M/D/1, so the batches are nearly independent. Both checks
// allow four standard errors, and the test also requires the wait's
// standard error to be under 5 % of Wq, so a pass is a real agreement,
// not a wide one.
func TestMD1QueueMatchesTheory(t *testing.T) {
	const (
		n       = 40_000
		batches = 20
	)
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		sched := sim.NewScheduler()
		net := NewNetwork(sched, sim.NewRand(7))
		a, b := net.AddNode("a"), net.AddNode("b")
		link := net.AddLink(a, b, LinkConfig{RateBps: 10 * Mbps, Delay: sim.Millisecond})
		net.ComputeRoutes()

		service := link.TxTime(1500)
		mean := sim.Duration(float64(service) / rho)
		src := &mdOneSource{net: net, src: a.ID, dst: b.ID, rng: sim.NewRand(uint64(rho * 1000)),
			mean: mean, horizon: sim.Time(n * mean)}
		waits := make([]float64, 0, n+n/10)
		b.Deliver = func(pkt *Packet, _ sim.Time) {
			waits = append(waits, float64(pkt.SentAt.Sub(pkt.Echo)))
		}
		sched.AtFunc(sim.Time(src.rng.ExpDuration(mean)), mdOneArrive, src)
		sched.Run()
		if len(waits) != src.injected || link.Stats.Dropped != 0 {
			t.Fatalf("ρ=%.1f: %d delivered of %d injected, %d dropped", rho, len(waits), src.injected, link.Stats.Dropped)
		}

		wantWq := rho * float64(service) / (2 * (1 - rho))
		size := len(waits) / batches
		var sum, sumSq float64
		for k := 0; k < batches; k++ {
			m := meanOf(waits[k*size : (k+1)*size])
			sum += m
			sumSq += m * m
		}
		gotWq := sum / batches
		se := math.Sqrt((sumSq/batches - gotWq*gotWq) / (batches - 1))
		if se > 0.05*wantWq || math.Abs(gotWq-wantWq) > 4*se {
			t.Errorf("ρ=%.1f: mean wait %.1f µs ± %.1f (batch means), M/D/1 gives %.1f µs",
				rho, gotWq/1e3, se/1e3, wantWq/1e3)
		}

		gotRho := float64(link.Stats.BusyTime) / float64(src.horizon)
		if tol := 4 * rho / math.Sqrt(rho*float64(src.horizon)/float64(service)); math.Abs(gotRho-rho) > tol {
			t.Errorf("ρ=%.1f: link busy %.4f of the time, want ρ ± %.4f", rho, gotRho, tol)
		}
		t.Logf("ρ=%.1f: %d packets, Wq %.1f µs (M/D/1 %.1f, batch SE %.1f), busy %.4f",
			rho, len(waits), gotWq/1e3, wantWq/1e3, se/1e3, gotRho)
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
