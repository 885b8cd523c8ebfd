package jumpstart_test

import (
	"testing"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/protocols/jumpstart"
	"halfback/internal/protocols/tcp"
	"halfback/internal/ptest"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

func TestCleanTransferPacedInOneRTT(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	st := w.Transfer(100_000, jumpstart.New())
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// Like Halfback's pacing phase: ≈2.5 RTT end to end.
	if fct := st.FCT(); fct < 230*sim.Millisecond || fct > 280*sim.Millisecond {
		t.Fatalf("FCT %v", fct)
	}
	if st.ProactiveRetx != 0 {
		t.Fatal("JumpStart never sends proactive copies")
	}
	if st.DataPktsSent != 69 {
		t.Fatalf("clean run should send exactly 69 packets, sent %d", st.DataPktsSent)
	}
}

func TestBeatsTCPOnCleanPath(t *testing.T) {
	wj := ptest.NewWorld(netem.PathConfig{})
	js := wj.Transfer(100_000, jumpstart.New())
	wt := ptest.NewWorld(netem.PathConfig{})
	tc := wt.Transfer(100_000, tcp.New(tcp.Config{InitialWindow: 2}))
	if !(js.FCT() < tc.FCT()/2) {
		t.Fatalf("JumpStart (%v) should be far faster than TCP (%v)", js.FCT(), tc.FCT())
	}
}

func TestBurstRetransmissionOnLoss(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	w.DropDataSeqs(10, 11, 12, 13)
	var retxTimes []sim.Time
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData && pkt.Retransmit {
			retxTimes = append(retxTimes, pkt.SentAt)
		}
		return true
	})
	st := w.Transfer(100_000, jumpstart.New())
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts != 0 {
		t.Fatalf("SACK-visible loss should not need a timeout, got %d", st.Timeouts)
	}
	if len(retxTimes) < 4 {
		t.Fatalf("all four holes must retransmit, got %d", len(retxTimes))
	}
	// The burst leaves back-to-back at line rate (100 Mbps → 120 µs per
	// segment), not ACK-clocked.
	span := retxTimes[3].Sub(retxTimes[0])
	if span > 1*sim.Millisecond {
		t.Fatalf("retransmissions spread over %v — not a burst", span)
	}
}

func TestTimeoutGoBackN(t *testing.T) {
	// Pure tail loss: recovery must come from the RTO, and the timeout
	// path re-bursts every outstanding hole.
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(64, 65, 66, 67, 68)
	st := w.Transfer(100_000, jumpstart.New())
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts == 0 {
		t.Fatal("tail loss must cost JumpStart a timeout")
	}
	// FCT dominated by the 1 s RTO — the penalty Halfback avoids.
	if st.FCT() < 1*sim.Second {
		t.Fatalf("FCT %v should include the RTO", st.FCT())
	}
	if st.NormalRetx < 5 {
		t.Fatalf("go-back-N must cover every hole, retx=%d", st.NormalRetx)
	}
}

func TestLongFlowContinuesAfterPacedWindow(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	st := w.Transfer(500_000, jumpstart.New())
	if !st.Completed {
		t.Fatal("long flow did not complete")
	}
	if st.DataPktsSent < 343 {
		t.Fatalf("sent %d packets for 343 segments", st.DataPktsSent)
	}
}

func TestPacingCompleteExposed(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	logic := jumpstart.New()().(*jumpstart.Logic)
	conn := w.Dial(100_000, transport.Options{}, func() cc.Controller { return logic })
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(150 * sim.Millisecond)) // mid-pacing
	if logic.PacingComplete() {
		t.Fatal("pacing cannot be complete mid-RTT")
	}
	w.Sched.RunUntil(sim.Time(60 * sim.Second))
	conn.Abort()
	if !logic.PacingComplete() {
		t.Fatal("pacing should have completed")
	}
}
