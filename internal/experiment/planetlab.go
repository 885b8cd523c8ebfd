package experiment

import (
	"fmt"

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

// PlanetLabData is the shared dataset behind Figs. 5, 6, 7 and 8: one
// cold-download row per (pair, scheme), pair-major.
type PlanetLabData struct {
	Pairs int
	Rows  []fleet.Row
}

// RunPlanetLab executes the §4.2.1 campaign: for every generated path
// and every scheme, one cold 100 KB download on a network in its
// just-built state (a pooled universe, reset; see fetchRow). The
// path population is drawn serially (its generator is shared), then the
// path×scheme universes fan out across sc.Workers goroutines.
func RunPlanetLab(seed uint64, sc Scale) *PlanetLabData {
	rng := sim.NewRand(seed)
	n := sc.trials(PlanetLabPairs)
	specs := workload.PlanetLabPopulationCached(rng.ForkNamed("paths"), n)
	schemes := planetLabSchemes()
	return &PlanetLabData{Pairs: n, Rows: grid(sc, n, len(schemes), func(pi, si int) string {
		return fmt.Sprintf("planetlab pair %d scheme %s", pi, schemes[si])
	}, func(pi, si int) fleet.Row {
		return fetchRow(seed^uint64(pi*131+si+7), specs[pi], schemes[si])
	})}
}

// metric extraction ----------------------------------------------------

// perScheme collects column col of the completed trials that also have
// column only set, per scheme.
func (d *PlanetLabData) perScheme(col, only int) map[string][]float64 {
	schemes := planetLabSchemes()
	out := make(map[string][]float64)
	for i, r := range d.Rows {
		if r[colDone] != 0 && r[only] != 0 {
			name := schemes[i%len(schemes)]
			out[name] = append(out[name], r[col])
		}
	}
	return out
}

// FCTms returns completed-flow FCTs in ms per scheme.
func (d *PlanetLabData) FCTms() map[string][]float64 { return d.perScheme(colFCT, colDone) }

// LossyFCTms returns FCTs (ms) of trials that experienced loss (Fig. 8).
func (d *PlanetLabData) LossyFCTms() map[string][]float64 { return d.perScheme(colFCT, colLossSeen) }

// RTTCounts returns FCT normalized by path RTT per scheme (Fig. 7).
func (d *PlanetLabData) RTTCounts() map[string][]float64 { return d.perScheme(colRTTs, colDone) }

// NormalRetx returns per-flow reactive retransmission counts (Fig. 5).
func (d *PlanetLabData) NormalRetx() map[string][]float64 { return d.perScheme(colNormalRetx, colDone) }

// LossFraction returns the fraction of a scheme's trials that saw loss.
func (d *PlanetLabData) LossFraction(schemeName string) float64 {
	schemes := planetLabSchemes()
	var n, lossy int
	for i, r := range d.Rows {
		if schemes[i%len(schemes)] == schemeName {
			n++
			lossy += int(r[colLossSeen])
		}
	}
	if n == 0 {
		return 0
	}
	return float64(lossy) / float64(n)
}

// figure wrappers -------------------------------------------------------

// cdfTables renders per-scheme CDF + CCDF tables for one metric.
func cdfTables(title, xlabel string, series map[string][]float64, order []string) []*metrics.Table {
	cdf := metrics.NewTable(title+" (CDF)", "scheme", xlabel, "percentile")
	ccdf := metrics.NewTable(title+" (CCDF)", "scheme", xlabel, "ccdf")
	summary := metrics.NewTable(title+" (summary)", "scheme", "n", "mean", "p50", "p90", "p99")
	for _, name := range order {
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

// Fig5Result reproduces Fig. 5: the distribution of normal (reactive)
// retransmissions per 100 KB flow across the wide-area population.
type Fig5Result struct{ Data *PlanetLabData }

// Tables renders the figure.
func (r *Fig5Result) Tables() []*metrics.Table {
	return cdfTables("Fig.5 Normal retransmissions per flow (PlanetLab)",
		"retransmissions", r.Data.NormalRetx(), planetLabSchemes())
}

// Fig5 runs the experiment.
func Fig5(seed uint64, sc Scale) *Fig5Result { return &Fig5Result{Data: RunPlanetLab(seed, sc)} }

// Fig6Result reproduces Fig. 6: FCT CDF/CCDF across the population.
type Fig6Result struct{ Data *PlanetLabData }

// Tables renders the figure, plus the paper's headline mean comparison.
func (r *Fig6Result) Tables() []*metrics.Table {
	tabs := cdfTables("Fig.6 Flow completion time (PlanetLab)",
		"fct_ms", r.Data.FCTms(), planetLabSchemes())
	head := metrics.NewTable("Fig.6 headline: Halfback mean-FCT reduction",
		"scheme", "mean_fct_ms", "halfback_reduction_%")
	fcts := r.Data.FCTms()
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
}

// Fig6 runs the experiment.
func Fig6(seed uint64, sc Scale) *Fig6Result { return &Fig6Result{Data: RunPlanetLab(seed, sc)} }

// Fig7Result reproduces Fig. 7: transfer duration in units of path RTT.
type Fig7Result struct{ Data *PlanetLabData }

// Tables renders the figure.
func (r *Fig7Result) Tables() []*metrics.Table {
	return cdfTables("Fig.7 RTTs used per transfer (PlanetLab)",
		"rtts", r.Data.RTTCounts(), planetLabSchemes())
}

// Fig7 runs the experiment.
func Fig7(seed uint64, sc Scale) *Fig7Result { return &Fig7Result{Data: RunPlanetLab(seed, sc)} }

// Fig8Result reproduces Fig. 8: FCT CDF restricted to lossy trials.
type Fig8Result struct{ Data *PlanetLabData }

// Tables renders the figure plus the loss-exposure fractions.
func (r *Fig8Result) Tables() []*metrics.Table {
	tabs := cdfTables("Fig.8 FCT under packet loss (PlanetLab)",
		"fct_ms", r.Data.LossyFCTms(), planetLabSchemes())
	frac := metrics.NewTable("Fig.8 loss exposure", "scheme", "fraction_trials_with_loss")
	for _, name := range planetLabSchemes() {
		frac.AddRow(name, r.Data.LossFraction(name))
	}
	lossy := r.Data.LossyFCTms()
	med := metrics.NewTable("Fig.8 headline: median lossy FCT", "scheme", "p50_fct_ms")
	for _, name := range planetLabSchemes() {
		med.AddRow(name, metrics.Summarize(lossy[name]).Median())
	}
	return append(tabs, frac, med)
}

// Fig8 runs the experiment.
func Fig8(seed uint64, sc Scale) *Fig8Result { return &Fig8Result{Data: RunPlanetLab(seed, sc)} }

// String summarises the dataset for logs.
func (d *PlanetLabData) String() string {
	return fmt.Sprintf("planetlab: %d pairs, %d trials", d.Pairs, len(d.Rows))
}
