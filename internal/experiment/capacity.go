package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// Fig. 12 / Fig. 17 configuration (§4.3.1, §5): only 100 KB short flows,
// all running the scheme under test, with offered load swept from 5 % to
// 90 % of the bottleneck in 5 % steps.
const (
	capacityHorizon = 120 * sim.Second
	// The paper defines feasible capacity as "the maximum achievable
	// network utilization before the throughput collapses", identified
	// by "a spike in packet loss and FCT" (§4.3.1). We detect the
	// spike with a hybrid criterion: a point has collapsed when mean
	// FCT exceeds max(collapseFactor × the scheme's own low-load FCT,
	// collapseFloor) or flows stop completing. The absolute floor
	// corresponds to the knee region of Fig. 12's y-axis (its curves
	// shoot past ~1 s at collapse) and keeps the criterion from
	// penalising low-latency schemes for merely tripling a tiny base.
	collapseFactor = 3.0
	collapseFloor  = 1000.0 // ms
	// collapseCompletion is the minimum completion rate for a point to
	// count as feasible.
	collapseCompletion = 0.95
)

// capacityUtils returns the swept utilizations.
func capacityUtils() []float64 {
	var out []float64
	for u := 0.05; u <= 0.901; u += 0.05 {
		out = append(out, u)
	}
	return out
}

// capacityPlan is the FCT-vs-utilization sweep Figs. 1, 12 and 17 and the
// extensions' capacity half are read from: one summary row per (scheme,
// utilization), scheme-major. Its curves are the schemes: a cell's seed
// depends on its own scheme and utilization only, so a curve's rows are
// the same in every sweep that holds it.
func capacityPlan(seed uint64, sc Scale, schemes []string) ([]Axis, func([]int) (fleet.Row, error)) {
	horizon := sc.horizon(capacityHorizon)
	utils := capacityUtils()
	return []Axis{{"scheme", schemes}, {"util", labels(utils, pct)}}, func(at []int) (fleet.Row, error) {
		s, arrivals := capacityCell(seed, schemes[at[0]], utils[at[1]], horizon).run()
		return summaryRow(&s.World, "", len(arrivals[0])), nil
	}
}

// capacityCell declares one capacity cell: 100 KB flows of the scheme
// offering util of the bottleneck.
func capacityCell(seed uint64, schemeName string, util float64, horizon sim.Duration) *cell {
	return &cell{seed: seed ^ hashString(schemeName) ^ uint64(util*1000), net: netem.DumbbellConfig{Pairs: 16},
		classes: []flowClass{{scheme: schemeName, sizes: workload.Fixed{Bytes: PlanetLabFlowBytes},
			share: util, horizon: horizon, fork: "arrivals"}},
		// Generous drain so slow-but-alive flows can finish; flows that
		// still cannot complete are the collapse signal.
		runFor: horizon + 120*sim.Second}
}

// feasiblePoints counts the leading points of a scheme's FCT-vs-
// utilization curve that do not collapse: mean FCT within
// max(collapseFactor × the curve's low-load value, collapseFloor) and at
// least collapseCompletion of the flows completing. Collapse is terminal:
// a later point that recovers does not count.
func feasiblePoints(curve []fleet.Row) int {
	base := curve[0][colMeanFCT]
	for i, p := range curve {
		if base == 0 || p[colCompletion] < collapseCompletion || p[colMeanFCT] > max(collapseFactor*base, collapseFloor) {
			return i
		}
	}
	return len(curve)
}

// feasibleTable renders each scheme's feasible capacity (the highest
// swept utilization of its feasible points) and its FCT at the lowest
// swept utilization — the two axes of Fig. 1.
func feasibleTable(g *Grid, title, fctColumn string) *metrics.Table {
	t := metrics.NewTable(title, "scheme", "feasible_capacity_%", fctColumn)
	utils, n := capacityUtils(), len(g.Axes[1].Labels)
	for si, name := range g.Axes[0].Labels {
		curve, feasible := g.Rows[si*n:(si+1)*n], 0.0
		if k := feasiblePoints(curve); k > 0 {
			feasible = utils[k-1]
		}
		t.AddRow(name, feasible*100, curve[0][colMeanFCT])
	}
	return t
}

// capacityTables renders a capacity sweep: feasible capacities, then the
// curves.
func capacityTables(feasibleTitle, sweepTitle string) func(*Grid) []*metrics.Table {
	return func(g *Grid) []*metrics.Table {
		t := metrics.NewTable(sweepTitle,
			"scheme", "utilization_%", "mean_fct_ms", "p99_fct_ms", "completion", "mean_norm_retx")
		utils := capacityUtils()
		g.Each(func(at []int, p fleet.Row) {
			t.AddRow(g.Axes[0].Labels[at[0]], utils[at[1]]*100,
				p[colMeanFCT], p[colP99FCT], p[colCompletion], p[colMeanRetx])
		})
		return []*metrics.Table{feasibleTable(g, feasibleTitle, "low_load_fct_ms"), t}
	}
}

// paperSchemes are the eight curves of Figs. 11 and 12, and so the points
// of Fig. 1.
func paperSchemes() []string {
	return []string{
		scheme.PCP, scheme.Proactive, scheme.TCP, scheme.Reactive,
		scheme.TCP10, scheme.TCPCache, scheme.JumpStart, scheme.Halfback,
	}
}

// fig1 reproduces Fig. 1: the latency-vs-feasible-capacity tradeoff
// scatter that frames the whole paper. Each scheme is one point: x =
// feasible capacity from the Fig. 12 sweep, y = its common-case
// (low-load) FCT.
var fig1 = &Spec{ID: "1", Title: "Latency vs feasible-capacity tradeoff",
	reads: fig12, curves: paperSchemes(),
	Tables: func(g *Grid) []*metrics.Table {
		return []*metrics.Table{feasibleTable(g, "Fig.1 Latency vs feasible-capacity tradeoff", "common_case_fct_ms")}
	},
}

// fig12 reproduces Fig. 12: all-short-flow FCT vs utilization, with
// feasible capacity per scheme. Its sweep is the capacity sweep Figs. 1
// and 17 and ext read too.
var fig12 = &Spec{ID: "12", Title: "Feasible capacity, all-short workload",
	Plan: capacityPlan, curves: paperSchemes(),
	Tables: capacityTables("Fig.12 feasible capacity (all-short-flow workload)", "Fig.12 FCT vs utilization (short flows only)"),
}

// fig17 reproduces Fig. 17: the §5 ablation sweep isolating ROPR's
// design decisions (direction, rate, bandwidth budget).
var fig17 = &Spec{ID: "17", Title: "ROPR design ablations",
	reads: fig12, curves: []string{
		scheme.Proactive, scheme.TCP, scheme.TCP10,
		scheme.HalfbackBurst, scheme.HalfbackForward,
		scheme.JumpStart, scheme.Halfback,
	},
	Tables: capacityTables("Fig.17 feasible capacity (ablations)", "Fig.17 FCT vs utilization (startup/recovery ablations)"),
}
