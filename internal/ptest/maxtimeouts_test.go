package ptest

import (
	"testing"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// maxTimeoutsWorld builds a world whose data direction is dark until
// outageEnd (the handshake and ACK direction stay clean), so the sender
// accumulates one consecutive RTO per MaxRTO-capped backoff interval.
func maxTimeoutsWorld(outageEnd sim.Time) *World {
	w := NewWorld(netem.PathConfig{})
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		return pkt.Kind != netem.KindData || now >= outageEnd
	})
	return w
}

// MaxTimeouts semantics, pinned: a negative value disables the
// consecutive-RTO give-up entirely ("retry forever"), so a flow rides
// out an outage long enough to fire far more than the default budget of
// 15 timeouts and still completes once the path heals. The same outage
// under the default budget must abort with the retx-budget reason.
// This is the behaviour the fctsweep/flowtrace -maxtimeouts flag help
// documents; keep all three in sync.
func TestMaxTimeoutsNegativeRetriesForever(t *testing.T) {
	// With backoff capped at 1 s, a 30 s data blackout forces well over
	// 15 consecutive RTOs — beyond the default give-up budget.
	const outageEnd = sim.Time(30 * sim.Second)

	opts := transport.Options{MaxRTO: sim.Second}
	opts.MaxTimeouts = -1
	w := maxTimeoutsWorld(outageEnd)
	conn := w.Dial(60_000, opts, scheme.MustNew("TCP").Make)
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(300 * sim.Second))
	conn.Abort()
	if conn.Stats.Aborted {
		t.Fatalf("MaxTimeouts=-1: flow aborted (%v) instead of retrying forever",
			conn.Stats.AbortReason)
	}
	if !conn.Stats.Completed {
		t.Fatalf("MaxTimeouts=-1: flow did not complete after the outage lifted (stats %+v)",
			conn.Stats)
	}
	if conn.Stats.SenderDone < outageEnd {
		t.Fatalf("flow finished at %v, before the outage even ended — outage did not bite",
			conn.Stats.SenderDone)
	}
}

// The control half of the regression: zero selects the default budget
// of 15, which the same outage must exhaust.
func TestMaxTimeoutsDefaultAbortsInOutage(t *testing.T) {
	const outageEnd = sim.Time(30 * sim.Second)

	opts := transport.Options{MaxRTO: sim.Second} // MaxTimeouts 0 → default 15
	w := maxTimeoutsWorld(outageEnd)
	conn := w.Dial(60_000, opts, scheme.MustNew("TCP").Make)
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(300 * sim.Second))
	conn.Abort()
	if !conn.Stats.Aborted || conn.Stats.AbortReason != transport.AbortRetxBudgetExhausted {
		t.Fatalf("default MaxTimeouts: want retx-budget abort, got %+v", conn.Stats)
	}
}
