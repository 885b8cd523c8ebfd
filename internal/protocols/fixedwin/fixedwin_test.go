package fixedwin_test

import (
	"testing"

	"halfback/internal/netem"
	"halfback/internal/protocols/fixedwin"
	"halfback/internal/ptest"
	"halfback/internal/sim"
)

// TestWindowNeverExceeded counts data packets on the wire (sent minus
// delivered or dropped): the constant window bounds them on clean and
// lossy paths alike. A timeout's forced retransmission does not break
// the bound, because by then everything sent earlier has left the wire.
func TestWindowNeverExceeded(t *testing.T) {
	for _, tc := range []struct {
		window int32
		loss   float64
	}{{0, 0}, {0, 0.05}, {8, 0}, {8, 0.05}, {1, 0.02}} {
		want := tc.window
		if want == 0 {
			want = fixedwin.DefaultWindow
		}
		w := ptest.NewWorld(netem.PathConfig{LossProb: tc.loss})
		var inFlight, peak int32
		w.Net.Trace = func(ev netem.TraceEvent) {
			if ev.Pkt.Kind != netem.KindData {
				return
			}
			if ev.Kind == netem.TraceSend {
				inFlight++
				peak = max(peak, inFlight)
			} else {
				inFlight--
			}
		}
		st := w.Transfer(100_000, fixedwin.New(tc.window))
		if !st.Completed {
			t.Fatalf("window %d loss %v: did not complete: %+v", tc.window, tc.loss, st)
		}
		if peak > want || (tc.loss == 0 && peak != want) {
			t.Errorf("window %d loss %v: peak of %d data packets in flight, want %d", tc.window, tc.loss, peak, want)
		}
		if inFlight != 0 {
			t.Errorf("window %d loss %v: %d data packets unaccounted for", tc.window, tc.loss, inFlight)
		}
	}
}

// TestCompletesLossyTransfer: timeout recovery alone must carry a 50 KB
// flow through random loss well inside the transfer deadline.
func TestCompletesLossyTransfer(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		w := ptest.NewWorld(netem.PathConfig{LossProb: loss, BufferBytes: 64 << 10})
		st := w.Transfer(50_000, fixedwin.New(fixedwin.DefaultWindow))
		if !st.Completed {
			t.Fatalf("loss %v: did not complete: %+v", loss, st)
		}
		if st.DataPktsSent < int64(st.NumSegs) || st.NormalRetx != st.DataPktsSent-int64(st.NumSegs) {
			t.Errorf("loss %v: %d packets for %d segments with %d retransmissions", loss, st.DataPktsSent, st.NumSegs, st.NormalRetx)
		}
	}
}

// TestLostRetransmissionDoesNotStallRTO scripts the stall found by
// TestEverySchemeSurvivesHostilePaths (seed 0x9e4c2a9b5d188760): the
// last window (segments 31–34 of 35) is lost, the first timeout (at
// ~2 s) retransmits it, and every copy of 31 is lost again. Pipe then
// reads Window until the cumulative point moves, so a controller that
// only sends through the window gate never sends again and sits out its
// whole timeout budget; retransmitting the cumulative point on every
// timeout recovers at the second one (~4 s).
func TestLostRetransmissionDoesNotStallRTO(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	firstCopy := map[int32]bool{32: true, 33: true, 34: true}
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind != netem.KindData {
			return true
		}
		if pkt.Seq == 31 {
			return now > sim.Time(3*sim.Second)
		}
		drop := firstCopy[pkt.Seq]
		delete(firstCopy, pkt.Seq)
		return !drop
	})
	st := w.Transfer(50_000, fixedwin.New(fixedwin.DefaultWindow))
	if !st.Completed || st.Timeouts != 2 || st.FCT() > 10*sim.Second {
		t.Fatalf("completed=%v after %d timeouts, FCT %v; want completion at the second timeout: %+v",
			st.Completed, st.Timeouts, st.FCT(), st)
	}
}
