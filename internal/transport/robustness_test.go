package transport

import (
	"testing"
	"testing/quick"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

// TestFlowSurvivesRandomLoss is the transport substrate's liveness
// property: whatever independent random loss the path applies (up to
// 30% each way), a flow run by the test controller either completes
// or gives up cleanly via the R2 limit — it never wedges with pending
// events, and completion implies every byte reached the receiver.
func TestFlowSurvivesRandomLoss(t *testing.T) {
	f := func(seed uint64, lossPct uint8, sizeKB uint8) bool {
		loss := float64(lossPct%31) / 100
		bytes := (int(sizeKB)%150 + 1) * 1000
		sched := sim.NewScheduler()
		sched.MaxEvents = 20_000_000
		p := netem.NewPath(sched, sim.NewRand(seed), netem.PathConfig{
			RateBps: 10 * netem.Mbps, RTT: 40 * sim.Millisecond,
			BufferBytes: 1 << 20, LossProb: loss,
		})
		client := NewStack(p.Net, p.Client)
		server := NewStack(p.Net, p.Server)
		conn := NewConn(1, server, client, bytes, Options{}, new(recCtrl).make, nil)
		conn.Start(0)
		sched.RunUntil(sim.Time(1800 * sim.Second))
		// Either completed, or aborted by the give-up rule.
		if !conn.Finished() {
			return false
		}
		if conn.Stats.Completed {
			// Receiver-side completion implies cumulative coverage.
			return conn.Stats.ReceiverDone > 0 && conn.Stats.ReceiverDone >= conn.Stats.Start
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestNoEventsAfterTeardown: after every flow finishes, the event queue
// drains — protocols must not leave immortal timers behind.
func TestNoEventsAfterTeardown(t *testing.T) {
	sched := sim.NewScheduler()
	p := netem.NewPath(sched, sim.NewRand(1), netem.PathConfig{
		RateBps: 10 * netem.Mbps, RTT: 40 * sim.Millisecond, BufferBytes: 1 << 20,
	})
	client := NewStack(p.Net, p.Client)
	server := NewStack(p.Net, p.Server)
	conn := NewConn(1, server, client, 50_000, Options{}, new(recCtrl).make, nil)
	conn.Start(0)
	sched.Run() // must terminate on its own
	if !conn.Stats.Completed {
		t.Fatal("flow did not complete")
	}
	if sched.Pending() != 0 {
		t.Fatalf("%d events still pending after completion", sched.Pending())
	}
}
