package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

const multihopHorizon = 120 * sim.Second

// multihop addresses the paper's explicit future-work item "emulation
// with more complex topologies": short flows traverse a parking-lot chain
// of three 15 Mbps bottlenecks while independent per-hop TCP cross
// traffic holds each hop at a target utilization. A chain multiplies
// both the loss exposure (three queues can overflow) and the cost of
// conservatism (three hops of queueing per RTT), so it stresses exactly
// the latency/safety trade-off the paper studies. One universe per
// (per-hop utilization, scheme) cell.
var multihop = &Spec{ID: "multihop", Title: "Parking-lot chain of bottlenecks",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		horizon := sc.horizon(multihopHorizon)
		utils := multihopUtils()
		schemes := []string{scheme.TCP, scheme.TCP10, scheme.JumpStart, scheme.Halfback}
		return []Axis{{"util", labels(utils, pct)}, {"scheme", schemes}}, func(at []int) (fleet.Row, error) {
			return runMultihopCell(seed, schemes[at[1]], utils[at[0]], horizon), nil
		}
	},
	Tables: func(g *Grid) []*metrics.Table {
		t := metrics.NewTable("Multihop parking lot (3 bottlenecks): chain-flow FCT",
			"scheme", "per_hop_utilization_%", "mean_fct_ms", "p99_fct_ms", "mean_retx", "completed", "launched")
		utils := multihopUtils()
		g.Each(func(at []int, row fleet.Row) {
			t.AddRow(g.Axes[1].Labels[at[1]], utils[at[0]]*100, row[colMeanFCT], row[colP99FCT],
				row[colMeanRetx], int(row[colCompleted]), int(row[colLaunched]))
		})
		return []*metrics.Table{t}
	},
}

func multihopUtils() []float64 { return []float64{0.10, 0.30, 0.50} }

func runMultihopCell(seed uint64, schemeName string, util float64, horizon sim.Duration) fleet.Row {
	rng := sim.NewRand(seed ^ hashString("multihop"+schemeName) ^ uint64(util*1e4))
	pl := netem.NewParkingLot(sim.NewScheduler(), rng.ForkNamed("net"))
	var w transport.World
	w.Reset(pl.Net, 1)
	launch := func(at sim.Time, inst *scheme.Instance, bytes int, src, dst *netem.Node, label string) {
		conn := w.Dial(src, dst, bytes, w.Opts, inst.Make, nil)
		conn.Stats.Scheme = label
		w.StartAt(at, conn)
	}

	// Per-hop TCP cross traffic at the target utilization.
	crossInst := scheme.MustNew(scheme.TCP)
	dist := workload.Fixed{Bytes: PlanetLabFlowBytes}
	ia := workload.MeanInterarrivalFor(dist.Mean(), util, pl.Bottlenecks[0].RateBps)
	for i := range pl.CrossSrc {
		for _, a := range workload.PoissonArrivals(rng.ForkNamed("cross"), dist, ia, horizon) {
			launch(a.At, crossInst, a.Bytes, pl.CrossSrc[i], pl.CrossDst[i], "cross")
		}
	}
	// Full-chain short flows of the scheme under test, every ~500 ms.
	inst := scheme.MustNew(schemeName)
	launched := 0
	for _, a := range workload.PoissonArrivals(rng.ForkNamed("chain"),
		dist, 500*sim.Millisecond, horizon) {
		launch(a.At, inst, a.Bytes, pl.Src, pl.Dst, schemeName)
		launched++
	}

	w.Run(horizon + 60*sim.Second)

	return summaryRow(&w, schemeName, launched)
}
