package experiment

import (
	"halfback/internal/fleet"
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

// fig15Buckets is how many buckets each flow's timeline has.
const fig15Buckets = int(fig15Horizon / fig15Bucket)

// Columns of a Fig. 15 row: the panel's recovery summary, then each
// flow's timeline of fig15Buckets Mbit/s values, background first.
const (
	// f15Recovery is how long after the short flow's start the
	// background flow takes to regain 90 % of its pre-disturbance
	// throughput, ms (the §4.3.4 discussion metric).
	f15Recovery = iota
	f15Dip      // the background's deepest 60 ms bucket after the disturbance, Mbit/s
	f15ShortFCT // the short transfer's completion time (both halves' for panel d), ms
	f15Series   // the first bucket of the background's timeline
)

// fig15Background labels the background flow's timeline.
const fig15Background = "Background Flow"

// fig15Scenarios are the simulated panels (b)–(d).
var fig15Scenarios = []fig15Scenario{
	{"Halfback", []fig15Short{{scheme.Halfback, fig15ShortBytes}}},
	{"One TCP short flow", []fig15Short{{scheme.TCP, fig15ShortBytes}}},
	{"Two TCP half-size flows", []fig15Short{
		{scheme.TCP, fig15ShortBytes / 2}, {scheme.TCP, fig15ShortBytes / 2},
	}},
}

type fig15Scenario struct {
	name   string
	shorts []fig15Short
}

type fig15Short struct {
	scheme string
	bytes  int
}

// flows labels the scenario's timelines in row order.
func (sc fig15Scenario) flows() []string {
	out := []string{fig15Background}
	for _, sh := range sc.shorts {
		out = append(out, sh.scheme+" short flow")
	}
	return out
}

// fig15 reproduces the figure. Scale shrinks nothing here (the scenario
// is already small): the three simulated panels are independent
// universes, and Tables adds the analytic panel (a).
var fig15 = &Spec{ID: "15", Title: "Ongoing-flow throughput timelines",
	Plan: func(seed uint64, _ Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		return []Axis{{"panel", labels(fig15Scenarios, func(s fig15Scenario) string { return s.name })}},
			func(at []int) (fleet.Row, error) { return fig15Run(seed, fig15Scenarios[at[0]]), nil }
	},
	// All four panels plus the recovery summary.
	Tables: func(g *Grid) []*metrics.Table {
		sum := metrics.NewTable("Fig.15 summary", "panel", "bg_recovery_ms", "bg_dip_mbps", "short_fct_ms")
		series := metrics.NewTable("Fig.15 throughput timelines (60ms buckets)",
			"panel", "flow", "t_ms", "mbps")
		panel := func(name string, flows []string, r fleet.Row) {
			sum.AddRow(name, r[f15Recovery], r[f15Dip], r[f15ShortFCT])
			for k, flow := range flows {
				for i, v := range r[f15Series+k*fig15Buckets : f15Series+(k+1)*fig15Buckets] {
					if i%2 != 0 {
						continue // thin to every other bucket for output
					}
					series.AddRow(name, flow, float64(i)*fig15Bucket.Seconds()*1000, v)
				}
			}
		}
		panel("Optimal", []string{fig15Background, "Optimal short flow"}, fig15Optimal())
		g.Each(func(at []int, r fleet.Row) {
			panel(fig15Scenarios[at[0]].name, fig15Scenarios[at[0]].flows(), r)
		})
		return []*metrics.Table{sum, series}
	},
}

// fig15Run runs one simulated panel into its row.
func fig15Run(seed uint64, sc fig15Scenario) fleet.Row {
	cfg := netem.DumbbellConfig{Pairs: 1 + len(sc.shorts)}
	s := NewDumbbellSim(seed^hashString("fig15"+sc.name), cfg)

	// The background flow runs on the same substrate as everything else
	// (141 KB window): it can just saturate the 15 Mbps bottleneck at
	// the base RTT, and — as in the paper — a short-flow burst that
	// costs it packets knocks its window down and leaves it to AIMD
	// back up over a couple of seconds.
	ts := []*metrics.TimeSeries{metrics.NewTimeSeries(0, fig15Bucket)}
	bg := s.StartFlowOn(0, scheme.MustNew(scheme.TCP), 1_000_000_000, 0, s.Opts, nil)
	bg.OnDeliver = func(b int, now sim.Time) { ts[0].Add(now, float64(b)) }
	for i, sh := range sc.shorts {
		short := metrics.NewTimeSeries(0, fig15Bucket)
		ts = append(ts, short)
		c := s.StartFlowOn(sim.Time(fig15ShortStart), scheme.MustNew(sh.scheme), sh.bytes, 1+i, s.Opts, nil)
		c.OnDeliver = func(b int, now sim.Time) { short.Add(now, float64(b)) }
	}
	s.Run(fig15Horizon)

	var lastShortDone sim.Time
	for _, st := range s.Finished {
		if st.FlowBytes < 600_000_000 && st.ReceiverDone > lastShortDone {
			lastShortDone = st.ReceiverDone
		}
	}

	row := make(fleet.Row, f15Series, f15Series+len(ts)*fig15Buckets)
	for _, t := range ts {
		for i := range fig15Buckets {
			row = append(row, t.Rate(i)*8/1e6)
		}
	}
	bgMbps := row[f15Series : f15Series+fig15Buckets]

	// Recovery: locate the background flow's deepest post-disturbance
	// bucket, then the first bucket after it that regains ≥90% of the
	// pre-disturbance throughput. Measured from the short flow's start,
	// matching the paper's "needs ~2s to achieve full bandwidth".
	start := int(fig15ShortStart / fig15Bucket)
	pre := bgMbps[start-2]
	minIdx, minVal := start, pre
	for i := start; i < len(bgMbps) && i < start+50; i++ {
		if bgMbps[i] < minVal {
			minVal, minIdx = bgMbps[i], i
		}
	}
	rec := -1.0
	for i := minIdx; i < len(bgMbps); i++ {
		if bgMbps[i] >= 0.9*pre {
			rec = float64(i-start) * fig15Bucket.Seconds() * 1000
			break
		}
	}
	row[f15Recovery], row[f15Dip] = rec, minVal
	if lastShortDone > 0 {
		row[f15ShortFCT] = lastShortDone.Sub(sim.Time(fig15ShortStart)).Seconds() * 1000
	}
	return row
}

// fig15Optimal is panel (a)'s row: the analytic ideal the paper sketches
// — the background instantly cedes half the bottleneck, the short flow
// transfers at that fair share, and the background instantly recovers.
func fig15Optimal() fleet.Row {
	rate := 15.0 // Mbit/s bottleneck
	transfer := sim.Duration(float64(fig15ShortBytes*8) / (rate / 2 * 1e6) * float64(sim.Second))
	row := make(fleet.Row, f15Series+2*fig15Buckets)
	row[f15Recovery], row[f15Dip], row[f15ShortFCT] = transfer.Seconds()*1000, rate/2, transfer.Seconds()*1000
	bg, short := row[f15Series:f15Series+fig15Buckets], row[f15Series+fig15Buckets:]
	for i := range fig15Buckets {
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
	return row
}
