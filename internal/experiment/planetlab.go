package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// PlanetLabPairs is the paper's population size (§4.2.1: "approximately
// 2.6K pairs among 100 hosts").
const PlanetLabPairs = 2600

// PlanetLabFlowBytes is the transfer size of the wide-area experiments.
const PlanetLabFlowBytes = 100_000

// planetLabSchemes are the six schemes the paper plots in Figs. 5–8.
func planetLabSchemes() []string {
	return []string{
		scheme.Halfback, scheme.JumpStart, scheme.TCP10,
		scheme.Reactive, scheme.TCP, scheme.Proactive,
	}
}

// planetLabPlan is the §4.2.1 campaign behind Figs. 5, 6, 7 and 8: for
// every generated path and every scheme, one cold 100 KB download on a
// network in its just-built state (a pooled universe, reset; see
// fetchRow). The path population is drawn serially (its generator is
// shared), then the pair × scheme universes fan out across sc.Workers
// goroutines.
func planetLabPlan(seed uint64, sc Scale) ([]Axis, func([]int) (fleet.Row, error)) {
	rng := sim.NewRand(seed)
	n := sc.trials(PlanetLabPairs)
	specs := workload.PlanetLabPopulationCached(rng.ForkNamed("paths"), n)
	schemes := planetLabSchemes()
	return []Axis{{"pair", indexLabels(n)}, {"scheme", schemes}}, func(at []int) (fleet.Row, error) {
		return fetchRow(seed^uint64(at[0]*131+at[1]+7), specs[at[0]], schemes[at[1]]), nil
	}
}

// RunPlanetLab runs the campaign: the grid Figs. 5–8 render.
func RunPlanetLab(seed uint64, sc Scale) *Grid { return fig6.Run(seed, sc) }

// perScheme collects column col of the completed downloads that also
// have column only set, per scheme.
func perScheme(g *Grid, col, only int) map[string][]float64 {
	out := make(map[string][]float64)
	g.Each(func(at []int, r fleet.Row) {
		if r[colDone] != 0 && r[only] != 0 {
			name := g.Axes[1].Labels[at[1]]
			out[name] = append(out[name], r[col])
		}
	})
	return out
}

// cdfTables renders per-scheme CDF + CCDF tables for one metric.
func cdfTables(title, xlabel string, series map[string][]float64) []*metrics.Table {
	cdf := metrics.NewTable(title+" (CDF)", "scheme", xlabel, "percentile")
	ccdf := metrics.NewTable(title+" (CCDF)", "scheme", xlabel, "ccdf")
	summary := metrics.NewTable(title+" (summary)", "scheme", "n", "mean", "p50", "p90", "p99")
	for _, name := range planetLabSchemes() {
		xs := series[name]
		for _, pt := range metrics.SampleCDF(metrics.CDF(xs), 21) {
			cdf.AddRow(name, pt.X, pt.P*100)
		}
		for _, pt := range metrics.SampleCDF(metrics.CCDF(xs), 21) {
			ccdf.AddRow(name, pt.X, pt.P*100)
		}
		s := metrics.Summarize(xs)
		summary.AddRow(name, s.N, s.Mean, s.Median(), s.Percentile(90), s.Percentile(99))
	}
	return []*metrics.Table{summary, cdf, ccdf}
}

// fig5 reproduces Fig. 5: the distribution of normal (reactive)
// retransmissions per 100 KB flow across the wide-area population.
var fig5 = &Spec{ID: "5", Title: "Normal retransmissions (PlanetLab)", Plan: planetLabPlan,
	Tables: func(g *Grid) []*metrics.Table {
		return cdfTables("Fig.5 Normal retransmissions per flow (PlanetLab)",
			"retransmissions", perScheme(g, colNormalRetx, colDone))
	},
}

// fig6 reproduces Fig. 6: FCT CDF/CCDF across the population, plus the
// paper's headline mean comparison.
var fig6 = &Spec{ID: "6", Title: "Flow completion time (PlanetLab)", Plan: planetLabPlan,
	Tables: func(g *Grid) []*metrics.Table {
		fcts := perScheme(g, colFCT, colDone)
		tabs := cdfTables("Fig.6 Flow completion time (PlanetLab)", "fct_ms", fcts)
		head := metrics.NewTable("Fig.6 headline: Halfback mean-FCT reduction",
			"scheme", "mean_fct_ms", "halfback_reduction_%")
		hb := metrics.Summarize(fcts[scheme.Halfback]).Mean
		for _, name := range planetLabSchemes() {
			m := metrics.Summarize(fcts[name]).Mean
			red := 0.0
			if m > 0 {
				red = (1 - hb/m) * 100
			}
			head.AddRow(name, m, red)
		}
		return append(tabs, head)
	},
}

// fig7 reproduces Fig. 7: transfer duration in units of path RTT.
var fig7 = &Spec{ID: "7", Title: "RTTs per transfer (PlanetLab)", Plan: planetLabPlan,
	Tables: func(g *Grid) []*metrics.Table {
		return cdfTables("Fig.7 RTTs used per transfer (PlanetLab)", "rtts", perScheme(g, colRTTs, colDone))
	},
}

// fig8 reproduces Fig. 8: FCT CDF restricted to lossy trials, plus the
// loss-exposure fractions.
var fig8 = &Spec{ID: "8", Title: "FCT under loss (PlanetLab)", Plan: planetLabPlan,
	Tables: func(g *Grid) []*metrics.Table {
		lossy := perScheme(g, colFCT, colLossSeen)
		tabs := cdfTables("Fig.8 FCT under packet loss (PlanetLab)", "fct_ms", lossy)
		lossSeen := make([]int, len(g.Axes[1].Labels))
		g.Each(func(at []int, r fleet.Row) { lossSeen[at[1]] += int(r[colLossSeen]) })
		frac := metrics.NewTable("Fig.8 loss exposure", "scheme", "fraction_trials_with_loss")
		for si, name := range g.Axes[1].Labels {
			frac.AddRow(name, float64(lossSeen[si])/float64(len(g.Axes[0].Labels)))
		}
		med := metrics.NewTable("Fig.8 headline: median lossy FCT", "scheme", "p50_fct_ms")
		for _, name := range planetLabSchemes() {
			med.AddRow(name, metrics.Summarize(lossy[name]).Median())
		}
		return append(tabs, frac, med)
	},
}
