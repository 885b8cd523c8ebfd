package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
)

const aqmBufferBytes = 600_000 // deliberately bloated

// aqm is the §6 complementarity exhibit: the paper argues AQM
// (CoDel/PIE) attacks bufferbloat from the router side and is "fully
// complementary" to finishing flows in fewer RTTs — "the improvements
// multiply". This experiment reruns the Fig. 10 bufferbloat scenario
// (one queue-building background TCP flow, periodic short flows) on a
// bloated 600 KB buffer under drop-tail, CoDel and RED, for many-round-
// trip schemes (TCP, TCP-10) and few-round-trip ones (JumpStart,
// Halfback): one universe per (discipline, scheme) cell.
var aqm = &Spec{ID: "aqm", Title: "AQM complementarity (CoDel/RED vs drop-tail)",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		horizon := sc.horizon(bufferbloatHorizon)
		discs := []netem.QueueDiscipline{netem.DropTail, netem.CoDel, netem.RED}
		schemes := []string{scheme.TCP, scheme.TCP10, scheme.JumpStart, scheme.Halfback}
		return []Axis{{"discipline", labels(discs, netem.QueueDiscipline.String)}, {"scheme", schemes}},
			func(at []int) (fleet.Row, error) {
				return runBufferbloatCell(seed^hashString("aqm"+schemes[at[1]])^uint64(discs[at[0]]),
					aqmBufferBytes, discs[at[0]], schemes[at[1]], horizon), nil
			}
	},
	Tables: func(g *Grid) []*metrics.Table {
		t := metrics.NewTable("AQM complementarity: short-flow FCT on a bloated (600 KB) bottleneck",
			"scheme", "discipline", "mean_fct_ms", "mean_norm_retx", "completed")
		g.Each(func(at []int, row fleet.Row) {
			t.AddRow(g.Axes[1].Labels[at[1]], g.Axes[0].Labels[at[0]],
				row[colMeanFCT], row[colMeanRetx], int(row[colCompleted]))
		})
		return []*metrics.Table{t}
	},
}
