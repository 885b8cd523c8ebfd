package experiment

// Headline regression tests: executable versions of the paper's key
// claims, run at reduced scale. They are the guardrails that keep the
// reproduction's *shape* intact — who wins, in which regime, by roughly
// what kind of margin. Skipped under -short.

import (
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
)

// headlineScale keeps each test in the seconds range while leaving
// enough samples for stable orderings.
var headlineScale = Scale{Trials: 0.08, Horizon: 0.3}

// skipHeadline gates the statistical tests: they are minutes of
// single-universe simulation, so they skip under -short, and under the
// race detector too — they exercise no concurrency of their own (the
// sweep-equivalence and cache-isolation tests cover that) and the ~10×
// instrumentation tax buys nothing here.
func skipHeadline(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("headline test")
	}
	if fleet.RaceEnabled {
		t.Skip("single-universe statistics; race builds cover concurrency elsewhere")
	}
}

func TestHeadlinePlanetLabOrdering(t *testing.T) {
	skipHeadline(t)
	d := RunPlanetLab(11, headlineScale)
	fcts := d.FCTms()
	mean := func(name string) float64 { return metrics.Summarize(fcts[name]).Mean }

	hb, js := mean(scheme.Halfback), mean(scheme.JumpStart)
	t10, tcp := mean(scheme.TCP10), mean(scheme.TCP)
	re, pro := mean(scheme.Reactive), mean(scheme.Proactive)
	t.Logf("means: HB=%.0f JS=%.0f TCP10=%.0f RE=%.0f TCP=%.0f PRO=%.0f", hb, js, t10, re, tcp, pro)

	// §4.2.1: Halfback < JumpStart < TCP-10 < {Reactive, TCP} < Proactive.
	if !(hb < js) {
		t.Errorf("Halfback (%v) must beat JumpStart (%v)", hb, js)
	}
	if !(js < t10) {
		t.Errorf("JumpStart (%v) must beat TCP-10 (%v)", js, t10)
	}
	if !(t10 < tcp) {
		t.Errorf("TCP-10 (%v) must beat TCP (%v)", t10, tcp)
	}
	if !(tcp < pro) {
		t.Errorf("TCP (%v) must beat Proactive (%v)", tcp, pro)
	}
	// Halfback cuts mean FCT vs TCP by roughly half or more (paper: 52%).
	if !(hb < 0.65*tcp) {
		t.Errorf("Halfback (%v) should cut TCP's FCT (%v) by ≥35%%", hb, tcp)
	}

	// ~25% of trials see loss (paper: 25%); accept a broad band.
	loss := d.LossFraction(scheme.Halfback)
	if loss < 0.10 || loss > 0.45 {
		t.Errorf("loss exposure %v, want ≈0.25", loss)
	}

	// Fig. 7: the paced schemes deliver most flows in a few RTTs while
	// TCP needs several.
	rtts := d.RTTCounts()
	hbMed := metrics.Summarize(rtts[scheme.Halfback]).Median()
	tcpMed := metrics.Summarize(rtts[scheme.TCP]).Median()
	// Low-bandwidth paths pay serialization time worth several RTTs on
	// a 100 KB transfer, so the population median sits above the
	// 2.5-RTT fast-path floor.
	if !(hbMed < 6) {
		t.Errorf("Halfback median RTTs %v, want <6", hbMed)
	}
	if !(tcpMed > hbMed+1) {
		t.Errorf("TCP median RTTs %v should exceed Halfback's %v clearly", tcpMed, hbMed)
	}
}

func TestHeadlineLossySubsetAdvantage(t *testing.T) {
	skipHeadline(t)
	d := RunPlanetLab(13, headlineScale)
	lossy := d.LossyFCTms()
	hb := metrics.Summarize(lossy[scheme.Halfback]).Median()
	js := metrics.Summarize(lossy[scheme.JumpStart]).Median()
	t.Logf("lossy medians: HB=%.0f JS=%.0f", hb, js)
	// Fig. 8: Halfback's lossy-case median is clearly below JumpStart's
	// (paper: 21% lower).
	if !(hb < js) {
		t.Errorf("lossy-subset: Halfback (%v) must beat JumpStart (%v)", hb, js)
	}
}

func TestHeadlineFeasibleCapacityOrdering(t *testing.T) {
	skipHeadline(t)
	sweep := RunCapacitySweep(17, Scale{Trials: 1, Horizon: 0.35}, []string{
		scheme.TCP, scheme.JumpStart, scheme.Halfback, scheme.Proactive, scheme.HalfbackForward,
	})
	fc := func(name string) float64 { return sweep.FeasibleCapacity(name) }
	tcp, js, hb := fc(scheme.TCP), fc(scheme.JumpStart), fc(scheme.Halfback)
	pro, fwd := fc(scheme.Proactive), fc(scheme.HalfbackForward)
	t.Logf("feasible: TCP=%.0f%% JS=%.0f%% HB=%.0f%% PRO=%.0f%% FWD=%.0f%%",
		tcp*100, js*100, hb*100, pro*100, fwd*100)

	// Fig. 12/17 ordering: TCP ≥ Halfback ≥ JumpStart > Proactive,
	// Halfback-Forward worst of the Halfback family.
	if !(tcp >= hb) {
		t.Errorf("TCP (%v) must have the highest feasible capacity (HB %v)", tcp, hb)
	}
	if !(hb >= js) {
		t.Errorf("Halfback (%v) must not collapse before JumpStart (%v)", hb, js)
	}
	if !(js > pro) {
		t.Errorf("JumpStart (%v) must outlast Proactive (%v)", js, pro)
	}
	if !(hb > fwd) {
		t.Errorf("reverse order (%v) must beat forward order (%v) — the §5 ablation", hb, fwd)
	}
	// Halfback reaches the 55–75% band (paper: 70%).
	if hb < 0.55 || hb > 0.80 {
		t.Errorf("Halfback feasible capacity %v, want ≈0.70", hb)
	}
	// And TCP the 80–90% band.
	if tcp < 0.75 {
		t.Errorf("TCP feasible capacity %v, want ≥0.80", tcp)
	}
}

func TestHeadlineBufferbloat(t *testing.T) {
	skipHeadline(t)
	// One small-buffer cell, per Fig. 10(b): Halfback needs a fraction
	// of JumpStart's normal retransmissions (paper: ~10×).
	horizon := headlineScale.horizon(bufferbloatHorizon)
	cell := func(name string) fleet.Row {
		return runBufferbloatCell(19^25_000*2654435761, netem.DumbbellConfig{Pairs: 4, BufferBytes: 25_000}, nil, name, horizon)
	}
	hb, js := cell(scheme.Halfback), cell(scheme.JumpStart)
	t.Logf("small buffer: HB retx=%.1f fct=%.0f | JS retx=%.1f fct=%.0f",
		hb[colMeanRetx], hb[colMeanFCT], js[colMeanRetx], js[colMeanFCT])
	if !(hb[colMeanRetx] < js[colMeanRetx]/2) {
		t.Errorf("Halfback retx (%v) should be well below JumpStart's (%v) at small buffers",
			hb[colMeanRetx], js[colMeanRetx])
	}
	if !(hb[colMeanFCT] < js[colMeanFCT]) {
		t.Errorf("Halfback FCT (%v) should beat JumpStart (%v) at small buffers",
			hb[colMeanFCT], js[colMeanFCT])
	}
}

func TestHeadlineFriendliness(t *testing.T) {
	skipHeadline(t)
	res := Fig14(23, Scale{Trials: 1, Horizon: 0.5})
	// §4.3.3: Halfback, TCP-10 and Reactive sit near (1,1); their
	// presence does not slow co-existing TCP flows much.
	for _, name := range []string{scheme.Halfback, scheme.TCP10, scheme.Reactive} {
		for _, util := range []float64{0.10, 0.20, 0.30} {
			pt, ok := res.At(name, util)
			if !ok {
				t.Fatalf("missing point %s@%v", name, util)
			}
			if pt.TCPRatio > 1.35 {
				t.Errorf("%s@%.0f%%: TCP slowed by %vx — not friendly", name, util*100, pt.TCPRatio)
			}
		}
	}
}

func TestHeadlineShortVsLong(t *testing.T) {
	skipHeadline(t)
	res := Fig13(29, Scale{Trials: 1, Horizon: 0.4})
	// §4.3.2 at 50% utilization: Halfback cuts short-flow FCT roughly
	// in half vs the all-TCP baseline while barely touching the long
	// flows (paper: −56% short, +3% long).
	pt, ok := res.At(scheme.Halfback, 0.50)
	if !ok {
		t.Fatal("missing Halfback@50%")
	}
	t.Logf("Halfback@50%%: short=%.2fx long=%.2fx", pt.ShortNormalized, pt.LongNormalized)
	if pt.ShortNormalized > 0.75 {
		t.Errorf("short-flow speedup too small: %vx", pt.ShortNormalized)
	}
	if pt.LongNormalized > 1.30 {
		t.Errorf("long flows slowed by %vx — should be mild", pt.LongNormalized)
	}
	// Proactive must hurt long flows more than Halfback does.
	pro, ok := res.At(scheme.Proactive, 0.50)
	if ok && pro.LongNormalized < pt.LongNormalized-0.25 {
		t.Errorf("Proactive long impact (%v) implausibly below Halfback's (%v)",
			pro.LongNormalized, pt.LongNormalized)
	}
}

func TestHeadlineWebResponse(t *testing.T) {
	skipHeadline(t)
	res := Fig16(31, Scale{Trials: 1, Horizon: 0.4})
	// §4.4 at low utilization: Halfback at or near the front; TCP
	// clearly behind it.
	response := func(name string, util float64) float64 {
		row, ok := res.At(name, util)
		if !ok {
			t.Fatalf("missing cell %s@%v", name, util)
		}
		return row[colMeanResponse]
	}
	hb, tcp, js := response(scheme.Halfback, 0.20), response(scheme.TCP, 0.20), response(scheme.JumpStart, 0.20)
	t.Logf("20%% util: HB=%.2fs JS=%.2fs TCP=%.2fs", hb, js, tcp)
	if !(hb < tcp) {
		t.Errorf("Halfback (%v) should beat TCP (%v) at low load", hb, tcp)
	}
	// §4.4's surprise: by 50–60% utilization JumpStart is clearly worse
	// than TCP at the application level.
	js60, tcp60 := response(scheme.JumpStart, 0.60), response(scheme.TCP, 0.60)
	t.Logf("60%% util: JS=%.2fs TCP=%.2fs", js60, tcp60)
	if !(js60 > tcp60) {
		t.Errorf("JumpStart (%v) should collapse below TCP (%v) at 60%%", js60, tcp60)
	}
}

func TestHeadlineAQMComplementarity(t *testing.T) {
	skipHeadline(t)
	res := AQM(3, Scale{Trials: 1, Horizon: 0.3})
	get := func(s, d string) float64 {
		row, ok := res.Cell(s, d)
		if !ok {
			t.Fatalf("missing cell %s/%s", s, d)
		}
		return row[colMeanFCT]
	}
	tcpDT := get(scheme.TCP, "droptail")
	tcpCD := get(scheme.TCP, "codel")
	hbDT := get(scheme.Halfback, "droptail")
	hbCD := get(scheme.Halfback, "codel")
	t.Logf("TCP: droptail=%.0f codel=%.0f | Halfback: droptail=%.0f codel=%.0f",
		tcpDT, tcpCD, hbDT, hbCD)
	// §6: AQM removes the queueing-delay component of every RTT, so it
	// helps the many-RTT scheme (TCP) dramatically...
	if !(tcpCD < tcpDT/2) {
		t.Errorf("CoDel should at least halve TCP's bloated FCT (%.0f → %.0f)",
			tcpDT, tcpCD)
	}
	// ...and the improvements multiply: fewer RTTs × cheaper RTTs is
	// the best cell in the grid.
	if !(hbCD < hbDT) {
		t.Errorf("CoDel should help Halfback too (%.0f → %.0f)", hbDT, hbCD)
	}
	if !(hbCD < tcpCD) {
		t.Errorf("Halfback×CoDel (%.0f) should beat TCP×CoDel (%.0f)",
			hbCD, tcpCD)
	}
}
