package experiment

// Headline regression tests: executable versions of the paper's key
// claims, run at reduced scale. They are the guardrails that keep the
// reproduction's *shape* intact — who wins, in which regime, by roughly
// what kind of margin. Skipped under -short.

import (
	"testing"

	"halfback/internal/fleet"
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
	head := runExhibit(t, "6", 11, headlineScale).Tables()[3]
	mean := func(name string) float64 { return value(t, head, "mean_fct_ms", name) }

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
	loss := value(t, runExhibit(t, "8", 11, headlineScale).Tables()[3], "fraction_trials_with_loss", scheme.Halfback)
	if loss < 0.10 || loss > 0.45 {
		t.Errorf("loss exposure %v, want ≈0.25", loss)
	}

	// Fig. 7: the paced schemes deliver most flows in a few RTTs while
	// TCP needs several.
	rtts := runExhibit(t, "7", 11, headlineScale).Tables()[0]
	hbMed, tcpMed := value(t, rtts, "p50", scheme.Halfback), value(t, rtts, "p50", scheme.TCP)
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
	med := runExhibit(t, "8", 13, headlineScale).Tables()[4]
	hb, js := value(t, med, "p50_fct_ms", scheme.Halfback), value(t, med, "p50_fct_ms", scheme.JumpStart)
	t.Logf("lossy medians: HB=%.0f JS=%.0f", hb, js)
	// Fig. 8: Halfback's lossy-case median is clearly below JumpStart's
	// (paper: 21% lower).
	if !(hb < js) {
		t.Errorf("lossy-subset: Halfback (%v) must beat JumpStart (%v)", hb, js)
	}
}

func TestHeadlineFeasibleCapacityOrdering(t *testing.T) {
	skipHeadline(t)
	sweep := &Spec{ID: "capacity", reads: fig12, curves: []string{
		scheme.TCP, scheme.JumpStart, scheme.Halfback, scheme.Proactive, scheme.HalfbackForward,
	}}
	feasible := feasibleTable(sweep.Run(17, Scale{Trials: 1, Horizon: 0.35}), "", "low_load_fct_ms")
	fc := func(name string) float64 { return value(t, feasible, "feasible_capacity_%", name) / 100 }
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
	scatter := runExhibit(t, "14", 23, Scale{Trials: 1, Horizon: 0.5}).Tables()[0]
	// §4.3.3: Halfback, TCP-10 and Reactive sit near (1,1); their
	// presence does not slow co-existing TCP flows much.
	for _, name := range []string{scheme.Halfback, scheme.TCP10, scheme.Reactive} {
		for _, util := range []string{"10.0", "20.0", "30.0"} {
			if x := value(t, scatter, "tcp_fct_ratio_x", name, util); x > 1.35 {
				t.Errorf("%s@%s%%: TCP slowed by %vx — not friendly", name, util, x)
			}
		}
	}
}

func TestHeadlineShortVsLong(t *testing.T) {
	skipHeadline(t)
	tabs := runExhibit(t, "13", 29, Scale{Trials: 1, Horizon: 0.4}).Tables()
	normalized := func(panel int, name string) float64 { return value(t, tabs[panel], "normalized_fct", name, "50.0") }
	// §4.3.2 at 50% utilization: Halfback cuts short-flow FCT roughly
	// in half vs the all-TCP baseline while barely touching the long
	// flows (paper: −56% short, +3% long).
	short, long := normalized(0, scheme.Halfback), normalized(1, scheme.Halfback)
	t.Logf("Halfback@50%%: short=%.2fx long=%.2fx", short, long)
	if short > 0.75 {
		t.Errorf("short-flow speedup too small: %vx", short)
	}
	if long > 1.30 {
		t.Errorf("long flows slowed by %vx — should be mild", long)
	}
	// Proactive must hurt long flows more than Halfback does.
	if pro := normalized(1, scheme.Proactive); pro < long-0.25 {
		t.Errorf("Proactive long impact (%v) implausibly below Halfback's (%v)", pro, long)
	}
}

func TestHeadlineWebResponse(t *testing.T) {
	skipHeadline(t)
	g := fig16.Run(31, Scale{Trials: 1, Horizon: 0.4})
	// §4.4 at low utilization: Halfback at or near the front; TCP
	// clearly behind it.
	response := func(name, util string) float64 {
		row := g.At(util, name)
		if row == nil {
			t.Fatalf("missing cell %s@%v", name, util)
		}
		return row[colMeanResponse]
	}
	hb, tcp, js := response(scheme.Halfback, "20%"), response(scheme.TCP, "20%"), response(scheme.JumpStart, "20%")
	t.Logf("20%% util: HB=%.2fs JS=%.2fs TCP=%.2fs", hb, js, tcp)
	if !(hb < tcp) {
		t.Errorf("Halfback (%v) should beat TCP (%v) at low load", hb, tcp)
	}
	// §4.4's surprise: by 50–60% utilization JumpStart is clearly worse
	// than TCP at the application level.
	js60, tcp60 := response(scheme.JumpStart, "60%"), response(scheme.TCP, "60%")
	t.Logf("60%% util: JS=%.2fs TCP=%.2fs", js60, tcp60)
	if !(js60 > tcp60) {
		t.Errorf("JumpStart (%v) should collapse below TCP (%v) at 60%%", js60, tcp60)
	}
}

func TestHeadlineAQMComplementarity(t *testing.T) {
	skipHeadline(t)
	g := aqm.Run(3, Scale{Trials: 1, Horizon: 0.3})
	get := func(s, d string) float64 {
		row := g.At(d, s)
		if row == nil {
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
