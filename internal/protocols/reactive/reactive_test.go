package reactive_test

import (
	"testing"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/protocols/reactive"
	"halfback/internal/protocols/tcp"
	"halfback/internal/ptest"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

func TestCleanTransferNoProbes(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	logic := reactive.New(2)().(*reactive.Logic)
	conn := w.Dial(100_000, transport.Options{}, func() cc.Controller { return logic })
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(120 * sim.Second))
	conn.Abort()
	st := conn.Stats
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.NormalRetx != 0 {
		t.Fatalf("clean path retx %d (probes should not fire with steady ACK flow)", st.NormalRetx)
	}
}

func TestTailProbeBeatsTimeout(t *testing.T) {
	// Drop the final segment: vanilla TCP pays the 1 s RTO; Reactive's
	// probe (2·SRTT ≈ 200 ms) recovers much sooner.
	runScheme := func(mk func() cc.Controller) *transport.FlowStats {
		w := ptest.NewWorld(netem.PathConfig{})
		w.DropDataSeqs(68)
		return w.Transfer(100_000, mk)
	}
	re := runScheme(reactive.New(2))
	tc := runScheme(tcp.New(tcp.Config{InitialWindow: 2}))
	if !re.Completed || !tc.Completed {
		t.Fatal("transfers did not complete")
	}
	if re.Timeouts != 0 {
		t.Fatalf("probe should pre-empt the RTO, timeouts=%d", re.Timeouts)
	}
	if tc.Timeouts == 0 {
		t.Fatal("baseline TCP should have timed out (test premise)")
	}
	if !(re.FCT() < tc.FCT()) {
		t.Fatalf("Reactive (%v) should beat TCP (%v) under tail loss", re.FCT(), tc.FCT())
	}
	// The probe is ~800 ms faster than the RTO path.
	if gain := tc.FCT() - re.FCT(); gain < 400*sim.Millisecond {
		t.Fatalf("probe gain only %v", gain)
	}
}

func TestProbeCountsAsNormalRetx(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(68)
	logic := reactive.New(2)().(*reactive.Logic)
	conn := w.Dial(100_000, transport.Options{}, func() cc.Controller { return logic })
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(120 * sim.Second))
	conn.Abort()
	if logic.Probes() == 0 {
		t.Fatal("tail loss should trigger a probe")
	}
	if conn.Stats.NormalRetx < logic.Probes() {
		t.Fatal("probes must be accounted as normal retransmissions")
	}
}

func TestProbeBudgetBounded(t *testing.T) {
	// Blackhole everything after establishment: the probe must not
	// fire unboundedly (two per episode, then RTO handles it).
	w := ptest.NewWorld(netem.PathConfig{})
	logic := reactive.New(2)().(*reactive.Logic)
	conn := w.Dial(50_000, transport.Options{}, func() cc.Controller { return logic })
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		return pkt.Kind != netem.KindData // swallow all data forever
	})
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(30 * sim.Second))
	probes := logic.Probes()
	conn.Abort()
	if conn.Stats.Completed {
		t.Fatal("blackholed flow cannot complete")
	}
	// Probe budget: ≤2 per progress epoch; RTOs reset it, and RTOs are
	// bounded by MaxTimeouts — so probes stay well bounded.
	if probes > 2*int64(conn.Stats.Timeouts+2) {
		t.Fatalf("probe storm: %d probes, %d timeouts", probes, conn.Stats.Timeouts)
	}
}
