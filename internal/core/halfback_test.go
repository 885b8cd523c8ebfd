package core_test

import (
	"testing"

	"halfback/internal/cc"
	"halfback/internal/core"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

func dialHB(w *ptest.World, bytes int, conf core.Config) (*transport.Conn, *core.Logic) {
	logic := core.New(conf)().(*core.Logic)
	conn := w.Dial(bytes, transport.Options{}, func() cc.Controller { return logic })
	return conn, logic
}

func run(w *ptest.World, conn *transport.Conn) {
	conn.Start(w.Sched.Now())
	w.Sched.RunUntil(w.Sched.Now().Add(300 * sim.Second))
	conn.Abort()
}

func TestPacingDeliversInTwoRTTs(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	st := w.Transfer(100_000, core.New(core.Config{}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// Handshake (1 RTT) + pacing spread (1 RTT) + final one-way
	// propagation (0.5 RTT) ≈ 250 ms — the "one third of TCP's time"
	// regime of §4.2.1.
	if fct := st.FCT(); fct < 230*sim.Millisecond || fct > 280*sim.Millisecond {
		t.Fatalf("FCT %v, want ≈2.5 RTT", fct)
	}
}

func TestROPRRetransmitsHalfOnCleanPath(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	st := w.Transfer(100_000, core.New(core.Config{}))
	// 69 segments → ~34 proactive copies (the eponymous half).
	if st.ProactiveRetx < 30 || st.ProactiveRetx > 38 {
		t.Fatalf("proactive copies %d, want ≈34", st.ProactiveRetx)
	}
	if st.NormalRetx != 0 {
		t.Fatalf("clean path normal retx %d", st.NormalRetx)
	}
}

func TestROPRCoversTailLossWithoutTimeout(t *testing.T) {
	// The headline mechanism: tail losses that force vanilla TCP into
	// a 1 s timeout are absorbed by reverse-order proactive copies.
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(66, 67, 68)
	st := w.Transfer(100_000, core.New(core.Config{}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts != 0 {
		t.Fatalf("ROPR should mask tail loss, timeouts=%d", st.Timeouts)
	}
	// Well under a second: no RTO on the path.
	if st.FCT() > 600*sim.Millisecond {
		t.Fatalf("FCT %v too slow for masked loss", st.FCT())
	}
}

func TestReverseOrderOnWire(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	var proactive []int32
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData && pkt.Proactive {
			proactive = append(proactive, pkt.Seq)
		}
		return true
	})
	st := w.Transfer(100_000, core.New(core.Config{}))
	if !st.Completed || len(proactive) < 10 {
		t.Fatalf("completed=%v proactive=%d", st.Completed, len(proactive))
	}
	for i := 1; i < len(proactive); i++ {
		if proactive[i] >= proactive[i-1] {
			t.Fatalf("ROPR must descend: %v", proactive[:i+1])
		}
	}
	if proactive[0] != 68 {
		t.Fatalf("ROPR must start at the flow's end, got %d", proactive[0])
	}
}

func TestForwardAblationAscends(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	var proactive []int32
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData && pkt.Proactive {
			proactive = append(proactive, pkt.Seq)
		}
		return true
	})
	st := w.Transfer(100_000, core.New(core.Config{Order: core.Forward}))
	if !st.Completed || len(proactive) < 5 {
		t.Fatalf("completed=%v proactive=%d", st.Completed, len(proactive))
	}
	for i := 1; i < len(proactive); i++ {
		if proactive[i] <= proactive[i-1] {
			t.Fatalf("forward ablation must ascend: %v", proactive[:i+1])
		}
	}
	// Budget: at most ~half the prefix.
	if len(proactive) > 35 {
		t.Fatalf("forward ablation exceeded the 50%% budget: %d", len(proactive))
	}
}

func TestBurstAblationSendsAtOnce(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	var times []sim.Time
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData && pkt.Proactive {
			times = append(times, pkt.SentAt)
		}
		return true
	})
	st := w.Transfer(100_000, core.New(core.Config{Order: core.Burst}))
	if !st.Completed || len(times) < 10 {
		t.Fatalf("completed=%v proactive=%d", st.Completed, len(times))
	}
	// All proactive copies leave within one serialization run (the
	// burst), far faster than ACK clocking would allow.
	span := times[len(times)-1].Sub(times[0])
	perPacket := sim.Duration(float64(netem.SegmentSize*8) / float64(100*netem.Mbps) * float64(sim.Second))
	if span > sim.Duration(len(times)+2)*perPacket {
		t.Fatalf("burst spread over %v, expected back-to-back", span)
	}
}

func TestPacingOnlyAblationHasNoOverhead(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	st := w.Transfer(100_000, core.New(core.Config{DisableROPR: true}))
	if st.ProactiveRetx != 0 {
		t.Fatalf("pacing-only sent %d proactive copies", st.ProactiveRetx)
	}
}

func TestPacingThresholdBoundsAggression(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	conn, logic := dialHB(w, 300_000, core.Config{PacingThresholdBytes: 50_000})
	run(w, conn)
	if !conn.Stats.Completed {
		t.Fatal("did not complete")
	}
	wantPaced := int32(netem.SegmentsFor(50_000))
	if logic.PacedSegments() != wantPaced {
		t.Fatalf("paced %d segments, threshold allows %d", logic.PacedSegments(), wantPaced)
	}
	if !logic.InFallback() {
		t.Fatal("flow beyond the threshold must enter TCP fallback")
	}
}

func TestFallbackCompletesLongFlow(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	conn, logic := dialHB(w, 1_000_000, core.Config{})
	run(w, conn)
	st := conn.Stats
	if !st.Completed {
		t.Fatal("1 MB flow did not complete")
	}
	if !logic.InFallback() {
		t.Fatal("1 MB flow must use the fallback")
	}
	if cw := logic.FallbackCwnd(); cw < 2 {
		t.Fatalf("fallback cwnd %v", cw)
	}
	// Proactive copies only cover the paced prefix (96 segments).
	if st.ProactiveRetx > 96 {
		t.Fatalf("proactive copies beyond the prefix: %d", st.ProactiveRetx)
	}
}

func TestFallbackSurvivesLossAroundHandover(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	// Drop segments straddling the prefix boundary (96).
	w.DropDataSeqs(93, 94, 95, 96, 97, 110, 140)
	conn, _ := dialHB(w, 500_000, core.Config{})
	run(w, conn)
	st := conn.Stats
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// No 1 s death march: the whole 500 KB at 10 Mbps needs ≈0.5 s of
	// serialization; allow generous recovery but far below timeouts
	// chains.
	if st.FCT() > 3*sim.Second {
		t.Fatalf("FCT %v suggests stalled recovery", st.FCT())
	}
}

func TestROPRConcludesOrFlowFinishes(t *testing.T) {
	// On a clean run the flow often completes before ROPR formally
	// declares itself done (the final cumulative ACK short-circuits
	// OnAck); either terminal state is correct, and no proactive
	// copies may follow completion.
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	conn, logic := dialHB(w, 100_000, core.Config{})
	run(w, conn)
	if !logic.ROPRDone() && !conn.Stats.Completed {
		t.Fatal("neither ROPR done nor flow complete")
	}
}

func TestRetxOrderString(t *testing.T) {
	if core.Reverse.String() != "reverse" || core.Forward.String() != "forward" ||
		core.Burst.String() != "burst" || core.RetxOrder(9).String() != "unknown" {
		t.Fatal("RetxOrder strings wrong")
	}
}

func TestHalfbackVsTCPUnderTailLoss(t *testing.T) {
	// The paper's Fig. 3 walkthrough as an executable claim: with a
	// dropped packet near the flow's end, Halfback beats TCP by
	// roughly the timeout it avoids.
	lossy := func(mkL func() cc.Controller) *transport.FlowStats {
		w := ptest.NewWorld(netem.PathConfig{})
		w.DropDataSeqs(67, 68)
		return w.Transfer(100_000, mkL)
	}
	hb := lossy(core.New(core.Config{}))
	if !hb.Completed {
		t.Fatal("halfback did not complete")
	}
	if hb.Timeouts != 0 {
		t.Fatalf("halfback should dodge the timeout, got %d", hb.Timeouts)
	}
}

func TestInitialBurstRefinement(t *testing.T) {
	// §4.2.4: bursting the first 10 segments before pacing should make
	// small flows (where pacing's 1-RTT spread is pure delay) faster,
	// and never slower on a clean path.
	small := 10 * 1460 // exactly ten segments
	wPlain := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	plain := wPlain.Transfer(small, core.New(core.Config{}))
	wBurst := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	burst := wBurst.Transfer(small, core.New(core.Config{InitialBurst: 10}))
	if !plain.Completed || !burst.Completed {
		t.Fatal("transfers did not complete")
	}
	if !(burst.FCT() < plain.FCT()) {
		t.Fatalf("initial burst (%v) should beat pure pacing (%v) on a 10-segment flow",
			burst.FCT(), plain.FCT())
	}
	// A 10-segment flow bursts entirely: ~1.5 RTT + handshake RTT.
	if burst.FCT() > 180*sim.Millisecond {
		t.Fatalf("burst-start FCT %v, want ≈1.5 RTT + handshake", burst.FCT())
	}
}

func TestInitialBurstStillPacesRemainder(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	var dataTimes []sim.Time
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData && !pkt.Retransmit {
			dataTimes = append(dataTimes, pkt.SentAt)
		}
		return true
	})
	st := w.Transfer(100_000, core.New(core.Config{InitialBurst: 10}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// First ten leave back-to-back; the rest are spread over ~1 RTT.
	burstSpan := dataTimes[9].Sub(dataTimes[0])
	paceSpan := dataTimes[len(dataTimes)-1].Sub(dataTimes[10])
	if burstSpan > 3*sim.Millisecond {
		t.Fatalf("initial burst spread over %v", burstSpan)
	}
	if paceSpan < 80*sim.Millisecond {
		t.Fatalf("remainder should still be paced across the RTT, spread %v", paceSpan)
	}
}

func TestProactiveRatioReducesOverhead(t *testing.T) {
	// §5 open question: 2 retransmissions per 3 ACKs ≈ ⅓ of the flow
	// instead of ½.
	wFull := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	full := wFull.Transfer(100_000, core.New(core.Config{}))
	wTwoThirds := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	reduced := wTwoThirds.Transfer(100_000, core.New(core.Config{ProactiveRatio: 2.0 / 3.0}))
	if !(reduced.ProactiveRetx < full.ProactiveRetx) {
		t.Fatalf("ratio ⅔ sent %d proactive copies vs full's %d",
			reduced.ProactiveRetx, full.ProactiveRetx)
	}
	// Budget ratio ≈ (2/3)/1 within tolerance.
	ratio := float64(reduced.ProactiveRetx) / float64(full.ProactiveRetx)
	if ratio < 0.5 || ratio > 0.85 {
		t.Fatalf("proactive ratio %v, want ≈0.67", ratio)
	}
}

func TestProactiveRatioValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ratio > 1 must panic")
		}
	}()
	core.New(core.Config{ProactiveRatio: 1.5})
}

func TestAdaptiveThresholdLearnsSlowPath(t *testing.T) {
	// First visit to a 2 Mbps path: cold history, full 141 KB pacing —
	// massive overshoot and loss. Second visit: the remembered
	// throughput bounds the prefix, so far fewer packets are lost.
	hist := core.NewRateHistory()
	conf := core.Config{History: hist}
	w := ptest.NewWorld(netem.PathConfig{
		RateBps: 2 * netem.Mbps, RTT: 100 * sim.Millisecond, BufferBytes: 20_000,
	})
	cold := w.Transfer(100_000, core.New(conf))
	if !cold.Completed {
		t.Fatal("cold transfer did not complete")
	}
	if hist.Len() != 1 {
		t.Fatal("history not recorded")
	}
	warm := w.Transfer(100_000, core.New(conf))
	if !warm.Completed {
		t.Fatal("warm transfer did not complete")
	}
	coldLoss := cold.NormalRetx + cold.Timeouts
	warmLoss := warm.NormalRetx + warm.Timeouts
	if !(warmLoss < coldLoss) {
		t.Fatalf("adaptive threshold should reduce self-inflicted loss: cold=%d warm=%d",
			coldLoss, warmLoss)
	}
}

func TestRateHistoryPeakAndDecay(t *testing.T) {
	h := core.NewRateHistory()
	if _, ok := h.Lookup(1, 2); ok {
		t.Fatal("cold lookup hit")
	}
	h.Observe(1, 2, 1000)
	h.Observe(1, 2, 5000) // new peak wins
	if r, _ := h.Lookup(1, 2); r != 5000 {
		t.Fatalf("peak %v", r)
	}
	h.Observe(1, 2, 1000) // lower observation decays the peak
	if r, _ := h.Lookup(1, 2); r >= 5000 || r <= 1000 {
		t.Fatalf("decay %v", r)
	}
	h.Observe(1, 2, 0) // ignored
	if h.Len() != 1 {
		t.Fatal("len")
	}
}

func TestSingleSegmentFlow(t *testing.T) {
	// Degenerate flow: one segment. Pacing sends it immediately; ROPR
	// has nothing to do; the flow must complete in ~1.5 RTT+handshake.
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	st := w.Transfer(500, core.New(core.Config{}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.ProactiveRetx != 0 {
		t.Fatalf("nothing to proactively cover, sent %d", st.ProactiveRetx)
	}
	if st.FCT() > 200*sim.Millisecond {
		t.Fatalf("FCT %v", st.FCT())
	}
}

func TestSingleSegmentFlowLost(t *testing.T) {
	// The worst case for a 1-segment flow: its only packet is lost and
	// no ACK ever clocks ROPR — only the RTO can save it, for every
	// scheme. Halfback must still complete.
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(0)
	st := w.Transfer(500, core.New(core.Config{}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts == 0 {
		t.Fatal("a 1-segment flow's only loss signal is the RTO")
	}
}

func TestDelayedAcksSlowButSafeROPR(t *testing.T) {
	// With delayed ACKs the ROPR clock ticks half as often, halving
	// the proactive budget actually spent on a clean path — the
	// ACK-clock sensitivity the DelayedAcks option exists to study.
	w := ptest.NewWorld(netem.PathConfig{RateBps: 100 * netem.Mbps})
	conn := w.Dial(100_000, transport.Options{DelayedAcks: true}, core.New(core.Config{}))
	run(w, conn)
	st := conn.Stats
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.ProactiveRetx >= 30 {
		t.Fatalf("thinner ACK clock should cut ROPR volume, sent %d", st.ProactiveRetx)
	}
}
