package experiment

import (
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
)

// Fig. 15 configuration (§4.3.4): one background TCP flow reaches full
// bandwidth, then a short transfer starts; throughput of every flow is
// measured in 60 ms buckets. Four panels: (a) the analytic optimum,
// (b) Halfback, (c) one TCP short flow, (d) two TCP flows carrying half
// the bytes each.
const (
	fig15Bucket     = 60 * sim.Millisecond
	fig15ShortStart = 1 * sim.Second // background has converged by then
	fig15ShortBytes = 141_000
	fig15Horizon    = 8 * sim.Second
)

// Fig15Series is one flow's throughput timeline in Mbit/s per bucket.
type Fig15Series struct {
	Label string
	Mbps  []float64
	// Bucket is exported so panels survive the gob round-trip through
	// the result journal intact (DESIGN.md §9).
	Bucket sim.Duration
}

// Fig15Panel is one of the figure's four scenarios.
type Fig15Panel struct {
	Name   string
	Series []Fig15Series
	// BackgroundRecoveryMs is how long after the short flow's start
	// the background flow takes to regain 90 % of its pre-disturbance
	// throughput (the §4.3.4 discussion metric).
	BackgroundRecoveryMs float64
	// BackgroundDipMbps is the background flow's deepest 60 ms bucket
	// after the disturbance.
	BackgroundDipMbps float64
	// ShortFCTms is the short transfer's completion time (sum of both
	// halves for panel d).
	ShortFCTms float64
}

// Fig15Result reproduces the four panels.
type Fig15Result struct {
	Panels []Fig15Panel
}

// Fig15 runs the experiment. Scale shrinks nothing here (the scenario
// is already small) but carries the worker count: the three simulated
// panels are independent universes.
func Fig15(seed uint64, sc Scale) *Fig15Result {
	scenarios := []fig15Scenario{
		{"Halfback", []fig15Short{{scheme.Halfback, fig15ShortBytes}}},
		{"One TCP short flow", []fig15Short{{scheme.TCP, fig15ShortBytes}}},
		{"Two TCP half-size flows", []fig15Short{
			{scheme.TCP, fig15ShortBytes / 2}, {scheme.TCP, fig15ShortBytes / 2},
		}},
	}
	names := labels(scenarios, func(s fig15Scenario) string { return s.name })
	panels, _ := runSweep(sc, "15", []Axis{{"panel", names}}, false, func(at []int) (Fig15Panel, error) {
		return fig15Run(seed, scenarios[at[0]].name, scenarios[at[0]].shorts), nil
	})
	res := &Fig15Result{}
	res.Panels = append(res.Panels, fig15Optimal())
	res.Panels = append(res.Panels, panels...)
	return res
}

type fig15Scenario struct {
	name   string
	shorts []fig15Short
}

type fig15Short struct {
	scheme string
	bytes  int
}

func fig15Run(seed uint64, name string, shorts []fig15Short) Fig15Panel {
	cfg := netem.DumbbellConfig{Pairs: 1 + len(shorts)}
	s := NewDumbbellSim(seed^hashString("fig15"+name), cfg)

	mkSeries := func(label string) (*metrics.TimeSeries, Fig15Series) {
		ts := metrics.NewTimeSeries(0, fig15Bucket)
		return ts, Fig15Series{Label: label, Bucket: fig15Bucket}
	}

	// The background flow runs on the same substrate as everything else
	// (141 KB window): it can just saturate the 15 Mbps bottleneck at
	// the base RTT, and — as in the paper — a short-flow burst that
	// costs it packets knocks its window down and leaves it to AIMD
	// back up over a couple of seconds.
	bgTS, bgSeries := mkSeries("Background Flow")
	bg := s.StartFlowOn(0, scheme.MustNew(scheme.TCP), 1_000_000_000, 0, s.Opts, nil)
	bg.OnDeliver = func(b int, now sim.Time) { bgTS.Add(now, float64(b)) }

	shortTS := make([]*metrics.TimeSeries, len(shorts))
	shortSeries := make([]Fig15Series, len(shorts))
	var lastShortDone sim.Time
	for i, sh := range shorts {
		ts, ser := mkSeries(sh.scheme + " short flow")
		shortTS[i], shortSeries[i] = ts, ser
		c := s.StartFlowOn(sim.Time(fig15ShortStart), scheme.MustNew(sh.scheme), sh.bytes, 1+i, s.Opts, nil)
		c.OnDeliver = func(b int, now sim.Time) { shortTS[i].Add(now, float64(b)) }
	}
	s.Run(fig15Horizon)

	for _, st := range s.Finished {
		if st.FlowBytes < 600_000_000 && st.ReceiverDone > lastShortDone {
			lastShortDone = st.ReceiverDone
		}
	}

	toMbps := func(ts *metrics.TimeSeries) []float64 {
		n := int(fig15Horizon / fig15Bucket)
		out := make([]float64, n)
		for i := range out {
			out[i] = ts.Rate(i) * 8 / 1e6
		}
		return out
	}
	bgSeries.Mbps = toMbps(bgTS)
	panel := Fig15Panel{Name: name}
	for i := range shortSeries {
		shortSeries[i].Mbps = toMbps(shortTS[i])
	}
	panel.Series = append([]Fig15Series{bgSeries}, shortSeries...)

	// Recovery: locate the background flow's deepest post-disturbance
	// bucket, then the first bucket after it that regains ≥90% of the
	// pre-disturbance throughput. Measured from the short flow's start,
	// matching the paper's "needs ~2s to achieve full bandwidth".
	start := int(fig15ShortStart / fig15Bucket)
	pre := bgSeries.Mbps[start-2]
	minIdx, minVal := start, pre
	for i := start; i < len(bgSeries.Mbps) && i < start+50; i++ {
		if bgSeries.Mbps[i] < minVal {
			minVal, minIdx = bgSeries.Mbps[i], i
		}
	}
	rec := -1.0
	for i := minIdx; i < len(bgSeries.Mbps); i++ {
		if bgSeries.Mbps[i] >= 0.9*pre {
			rec = float64(i-start) * fig15Bucket.Seconds() * 1000
			break
		}
	}
	panel.BackgroundRecoveryMs = rec
	panel.BackgroundDipMbps = minVal
	if lastShortDone > 0 {
		panel.ShortFCTms = lastShortDone.Sub(sim.Time(fig15ShortStart)).Seconds() * 1000
	}
	return panel
}

// fig15Optimal is panel (a): the analytic ideal the paper sketches — the
// background instantly cedes half the bottleneck, the short flow
// transfers at that fair share, and the background instantly recovers.
func fig15Optimal() Fig15Panel {
	rate := 15.0 // Mbit/s bottleneck
	n := int(fig15Horizon / fig15Bucket)
	bg := make([]float64, n)
	short := make([]float64, n)
	transfer := sim.Duration(float64(fig15ShortBytes*8) / (rate / 2 * 1e6) * float64(sim.Second))
	for i := 0; i < n; i++ {
		t := sim.Duration(i) * fig15Bucket
		switch {
		case t < fig15ShortStart:
			bg[i] = rate
		case t < fig15ShortStart+transfer:
			bg[i] = rate / 2
			short[i] = rate / 2
		default:
			bg[i] = rate
		}
	}
	return Fig15Panel{
		Name: "Optimal",
		Series: []Fig15Series{
			{Label: "Background Flow", Mbps: bg, Bucket: fig15Bucket},
			{Label: "Optimal short flow", Mbps: short, Bucket: fig15Bucket},
		},
		BackgroundRecoveryMs: transfer.Seconds() * 1000,
		BackgroundDipMbps:    rate / 2,
		ShortFCTms:           transfer.Seconds() * 1000,
	}
}

// Tables renders all four panels plus the recovery summary.
func (r *Fig15Result) Tables() []*metrics.Table {
	sum := metrics.NewTable("Fig.15 summary", "panel", "bg_recovery_ms", "bg_dip_mbps", "short_fct_ms")
	series := metrics.NewTable("Fig.15 throughput timelines (60ms buckets)",
		"panel", "flow", "t_ms", "mbps")
	for _, p := range r.Panels {
		sum.AddRow(p.Name, p.BackgroundRecoveryMs, p.BackgroundDipMbps, p.ShortFCTms)
		for _, s := range p.Series {
			for i, v := range s.Mbps {
				if i%2 != 0 {
					continue // thin to every other bucket for output
				}
				series.AddRow(p.Name, s.Label, float64(i)*s.Bucket.Seconds()*1000, v)
			}
		}
	}
	return []*metrics.Table{sum, series}
}
