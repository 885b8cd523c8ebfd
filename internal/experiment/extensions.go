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
// latency and feasible capacity. It is two specs, rendered in turn:
// FCT-by-size on the Internet mix, then feasible capacity.

func extSchemes() []string {
	return []string{
		scheme.Halfback, scheme.HalfbackIB10, scheme.HalfbackTwoThirds,
		scheme.PacingOnly, scheme.TCP10,
	}
}

// extSizes holds each scheme's FCT-by-size row (runFig11Cell) at 25 %
// utilization on the Internet mix.
var extSizes = &Spec{ID: "ext", Title: "Extensions: initial burst & reduced proactive budget",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
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

// extCapacity is each scheme's curve of the capacity sweep (Fig. 12's).
var extCapacity = &Spec{ID: "ext", reads: fig12, curves: extSchemes(),
	Tables: capacityTables("Extensions: feasible capacity", "Extensions: FCT vs utilization")}
