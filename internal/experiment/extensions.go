package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/workload"
)

// The extension-ablation exhibit: the paper's suggested refinements
// (§4.2.4's initial burst, §5's reduced proactive budget) evaluated
// against Halfback proper on the two axes they trade off — small-flow
// latency and feasible capacity. It is two sweeps, rendered in turn:
// FCT-by-size on the Internet mix, then a feasible-capacity sweep.

func extSchemes() []string {
	return []string{
		scheme.Halfback, scheme.HalfbackIB10, scheme.HalfbackTwoThirds,
		scheme.PacingOnly, scheme.TCP10,
	}
}

// extSizes holds each scheme's FCT-by-size row (runFig11Cell) at 25 %
// utilization on the Internet mix.
var extSizes = &Spec{ID: "ext",
	Plan: func(seed uint64, sc Scale) ([]Axis, func([]int) (fleet.Row, error)) {
		horizon := sc.horizon(fig11Horizon)
		dist := workload.InternetSizes()
		schemes := extSchemes()
		return []Axis{{"scheme", schemes}}, func(at []int) (fleet.Row, error) {
			return runFig11Cell(seed, dist, schemes[at[0]], horizon), nil
		}
	},
	Tables: func(g *Grid) []*metrics.Table {
		t := metrics.NewTable("Extensions: FCT vs flow size at 25% utilization (Internet mix)",
			"scheme", "size_KB", "mean_fct_ms", "n")
		g.Each(func(at []int, row fleet.Row) { addSizeRows(t, row, g.Axes[0].Labels[at[0]]) })
		return []*metrics.Table{t}
	},
}

var extCapacity = &Spec{ID: "ext", Plan: capacityPlan(extSchemes()),
	Tables: capacityTables("Extensions: feasible capacity", "Extensions: FCT vs utilization")}

// extensions runs both sweeps.
func extensions(seed uint64, sc Scale) Result {
	sizes, capacity := extSizes.Run(seed, sc), extCapacity.Run(seed, sc)
	return render(func() []*metrics.Table { return append(sizes.Tables(), capacity.Tables()...) })
}
