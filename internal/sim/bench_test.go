// Microbenchmarks for the scheduler hot paths, in an external test
// package so the link-drain benchmark can drive a real netem link
// through the public API. The two regimes the scheduler serves — a
// handful of events pending (heap only) and hundreds (wheel in front) —
// show up here without a whole-exhibit run:
//
//	go test ./internal/sim -bench . -benchmem
package sim_test

import (
	"testing"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

func nopEvent(sim.Time, any) {}

// BenchmarkSchedulerChurn measures the steady-state schedule+fire loop
// across a spread of deadlines that lands events in every wheel level
// and the overflow heap.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := sim.NewScheduler()
	offsets := [...]sim.Duration{
		1,
		sim.Duration(1) << 14, // heap (inside the slack window)
		sim.Duration(1) << 18, // level 0
		sim.Duration(1) << 26, // level 1
		sim.Duration(1) << 34, // level 2
		sim.Duration(1) << 42, // overflow heap
	}
	// Warm the pool and heap to the working set.
	for i := 0; i < 1024; i++ {
		s.AfterFunc(offsets[i%len(offsets)], nopEvent, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(offsets[i%len(offsets)], nopEvent, nil)
		if !s.Step() {
			b.Fatal("queue unexpectedly empty")
		}
	}
}

// BenchmarkTimerResetCancel measures the RTO-reset pattern alone: an
// ack arrives, the pending retransmit timer is stopped (removed and its
// slot released) and re-armed. Two events are ever pending, so both wait
// in the heap.
func BenchmarkTimerResetCancel(b *testing.B) {
	s := sim.NewScheduler()
	rto := 200 * sim.Millisecond
	tm := s.AfterFunc(rto, nopEvent, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(sim.Millisecond, nopEvent, nil) // the ack
		if !s.Step() {
			b.Fatal("queue unexpectedly empty")
		}
		tm.Stop()
		tm = s.AfterFunc(rto, nopEvent, nil)
	}
}

// BenchmarkSmallUniverse is the one-flow PlanetLab cell as the scheduler
// sees it: at most six events pending, every deadline 25–100 ms out,
// and one retransmit-timer restart (Stop + AfterFunc) per 4.6 fired
// events — the cell's measured 1.24M cancels in 5.70M events.
func BenchmarkSmallUniverse(b *testing.B) {
	s := sim.NewScheduler()
	delays := [...]sim.Duration{25, 40, 55, 70, 85, 100}
	for _, d := range delays[:5] {
		s.AfterFunc(d*sim.Millisecond, nopEvent, nil)
	}
	rto := s.AfterFunc(200*sim.Millisecond, nopEvent, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("queue unexpectedly empty")
		}
		s.AfterFunc(delays[i%len(delays)]*sim.Millisecond, nopEvent, nil)
		if i*10%46 < 10 {
			rto.Stop()
			rto = s.AfterFunc(200*sim.Millisecond, nopEvent, nil)
		}
	}
	if s.Pending() > 6 {
		b.Fatalf("%d events pending, want at most 6", s.Pending())
	}
}

// BenchmarkLinkDrain measures per-packet cost through a real link:
// enqueue, serialization completion, propagation, delivery — the path
// the arrival ring collapses to one scheduler entry per burst head.
func BenchmarkLinkDrain(b *testing.B) {
	sched := sim.NewScheduler()
	net := netem.NewNetwork(sched, sim.NewRand(1))
	src := net.AddNode("src")
	dst := net.AddNode("dst")
	net.AddLink(src, dst, netem.LinkConfig{RateBps: 1000 * netem.Mbps, Delay: sim.Millisecond})
	net.ComputeRoutes()
	delivered := 0
	dst.Deliver = func(pkt *netem.Packet, now sim.Time) { delivered++ }

	b.ReportAllocs()
	b.ResetTimer()
	const burst = 64
	for i := 0; i < b.N; i += burst {
		for j := 0; j < burst; j++ {
			pkt := net.NewPacket()
			pkt.Src, pkt.Dst = src.ID, dst.ID
			pkt.Size = netem.SegmentSize
			net.Inject(pkt, sched.Now())
		}
		sched.Run()
	}
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// The 0-alloc pins: the three benchmark shapes must stay allocation-free
// in steady state, so a regression fails CI as a test, not just as a
// silently drifting benchmark number.

func TestBenchmarkChurnZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	for i := 0; i < 1024; i++ {
		s.AfterFunc(sim.Duration(1+i%1000), nopEvent, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterFunc(sim.Duration(1)<<18, nopEvent, nil)
		if !s.Step() {
			t.Fatal("queue unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("scheduler churn allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestTimerResetCancelZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	tm := s.AfterFunc(200*sim.Millisecond, nopEvent, nil)
	// Warm: run the pattern past one full RTO so the pool reaches its
	// steady-state size before pinning.
	for i := 0; i < 400; i++ {
		s.AfterFunc(sim.Millisecond, nopEvent, nil)
		s.Step()
		tm.Stop()
		tm = s.AfterFunc(200*sim.Millisecond, nopEvent, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterFunc(sim.Millisecond, nopEvent, nil)
		if !s.Step() {
			t.Fatal("queue unexpectedly empty")
		}
		tm.Stop()
		tm = s.AfterFunc(200*sim.Millisecond, nopEvent, nil)
	})
	if allocs != 0 {
		t.Fatalf("timer reset/cancel allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestLinkDrainZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.NewNetwork(sched, sim.NewRand(1))
	src := net.AddNode("src")
	dst := net.AddNode("dst")
	net.AddLink(src, dst, netem.LinkConfig{RateBps: 1000 * netem.Mbps, Delay: sim.Millisecond})
	net.ComputeRoutes()
	dst.Deliver = func(pkt *netem.Packet, now sim.Time) {}
	// Warm the packet pool, event pool and rings to the working set.
	for w := 0; w < 4; w++ {
		for j := 0; j < 64; j++ {
			pkt := net.NewPacket()
			pkt.Src, pkt.Dst = src.ID, dst.ID
			pkt.Size = netem.SegmentSize
			net.Inject(pkt, sched.Now())
		}
		sched.Run()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 64; j++ {
			pkt := net.NewPacket()
			pkt.Src, pkt.Dst = src.ID, dst.ID
			pkt.Size = netem.SegmentSize
			net.Inject(pkt, sched.Now())
		}
		sched.Run()
	})
	if allocs != 0 {
		t.Fatalf("link drain allocated %.1f allocs/op, want 0", allocs)
	}
}
