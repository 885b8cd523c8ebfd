package experiment

import (
	"fmt"
	"slices"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/workload"
)

// ExtResult is the extension-ablation exhibit: the paper's suggested
// refinements (§4.2.4's initial burst, §5's reduced proactive budget)
// evaluated against Halfback proper on the two axes they trade off —
// small-flow latency and feasible capacity.
type ExtResult struct {
	// SmallFlows holds each scheme's FCT-by-size row (runFig11Cell) at
	// 25% utilization on the Internet mix.
	SmallFlows []fleet.Row
	Sweep      *CapacitySweep
	Schemes    []string
}

func extSchemes() []string {
	return []string{
		scheme.Halfback, scheme.HalfbackIB10, scheme.HalfbackTwoThirds,
		scheme.PacingOnly, scheme.TCP10,
	}
}

// Extensions runs the ablation: FCT-by-size on the Internet mix plus a
// feasible-capacity sweep. Both halves fan out on the fleet engine.
func Extensions(seed uint64, sc Scale) *ExtResult {
	res := &ExtResult{Schemes: extSchemes()}
	horizon := sc.horizon(fig11Horizon)
	dist := workload.InternetSizes()
	res.SmallFlows = sweep(sc, len(res.Schemes), func(i int) string {
		return fmt.Sprintf("ext sizes %s", res.Schemes[i])
	}, func(i int) fleet.Row {
		return runFig11Cell(seed, dist, res.Schemes[i], horizon)
	})
	res.Sweep = RunCapacitySweep(seed, sc, res.Schemes)
	return res
}

// Tables renders both panels.
func (r *ExtResult) Tables() []*metrics.Table {
	a := metrics.NewTable("Extensions: FCT vs flow size at 25% utilization (Internet mix)",
		"scheme", "size_KB", "mean_fct_ms", "n")
	for i, row := range r.SmallFlows {
		addSizeRows(a, row, r.Schemes[i])
	}
	b := r.Sweep.feasibleTable("Extensions: feasible capacity", r.Schemes)
	c := r.Sweep.sweepTable("Extensions: FCT vs utilization")
	return []*metrics.Table{a, b, c}
}

// MeanAtSize returns the mean FCT for (scheme, bucket), for tests.
func (r *ExtResult) MeanAtSize(schemeName string, sizeHi int) (float64, bool) {
	i, b := slices.Index(r.Schemes, schemeName), slices.Index(fig11SizeBuckets(), sizeHi)
	if i < 0 || b < 0 || r.SmallFlows[i][2*b+1] == 0 {
		return 0, false
	}
	return r.SmallFlows[i][2*b], true
}
