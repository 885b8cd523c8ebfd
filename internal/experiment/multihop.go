package experiment

import (
	"fmt"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// MultihopResult addresses the paper's explicit future-work item
// "emulation with more complex topologies": short flows traverse a
// parking-lot chain of three 15 Mbps bottlenecks while independent
// per-hop TCP cross traffic holds each hop at a target utilization. A
// chain multiplies both the loss exposure (three queues can overflow)
// and the cost of conservatism (three hops of queueing per RTT), so it
// stresses exactly the latency/safety trade-off the paper studies.
//
// Rows holds one summary row per (per-hop utilization, scheme),
// utilization-major.
type MultihopResult struct {
	Rows []fleet.Row
}

const multihopHorizon = 120 * sim.Second

func multihopSchemes() []string {
	return []string{scheme.TCP, scheme.TCP10, scheme.JumpStart, scheme.Halfback}
}

func multihopUtils() []float64 { return []float64{0.10, 0.30, 0.50} }

// Multihop runs the grid, one universe per (utilization, scheme) cell.
func Multihop(seed uint64, sc Scale) *MultihopResult {
	horizon := sc.horizon(multihopHorizon)
	utils := multihopUtils()
	schemes := multihopSchemes()
	rows := grid(sc, len(utils), len(schemes), func(ui, si int) string {
		return fmt.Sprintf("multihop %s @%.0f%%", schemes[si], utils[ui]*100)
	}, func(ui, si int) fleet.Row {
		return runMultihopCell(seed, schemes[si], utils[ui], horizon)
	})
	return &MultihopResult{Rows: rows}
}

func runMultihopCell(seed uint64, schemeName string, util float64, horizon sim.Duration) fleet.Row {
	rng := sim.NewRand(seed ^ hashString("multihop"+schemeName) ^ uint64(util*1e4))
	cfg := netem.ParkingLotConfig{Hops: 3}
	pl := netem.NewParkingLot(sim.NewScheduler(), rng.ForkNamed("net"), cfg)
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
	ia := workload.MeanInterarrivalFor(dist.Mean(), util, cfg.Defaulted().BottleneckBps)
	for i := range pl.CrossSrc {
		for _, a := range workload.PoissonArrivalsCached(rng.ForkNamed("cross"), dist, ia, horizon) {
			launch(a.At, crossInst, a.Bytes, pl.CrossSrc[i], pl.CrossDst[i], "cross")
		}
	}
	// Full-chain short flows of the scheme under test, every ~500 ms.
	inst := scheme.MustNew(schemeName)
	launched := 0
	for _, a := range workload.PoissonArrivalsCached(rng.ForkNamed("chain"),
		dist, 500*sim.Millisecond, horizon) {
		launch(a.At, inst, a.Bytes, pl.Src, pl.Dst, schemeName)
		launched++
	}

	w.Run(horizon + 60*sim.Second)

	return summaryRow(&w, schemeName, launched)
}

// Cell returns the (scheme, utilization) row, for tests.
func (r *MultihopResult) Cell(schemeName string, util float64) (fleet.Row, bool) {
	utils, schemes := multihopUtils(), multihopSchemes()
	for i, row := range r.Rows {
		if schemes[i%len(schemes)] == schemeName && abs(utils[i/len(schemes)]-util) < 1e-9 {
			return row, true
		}
	}
	return nil, false
}

// Tables renders the grid.
func (r *MultihopResult) Tables() []*metrics.Table {
	t := metrics.NewTable("Multihop parking lot (3 bottlenecks): chain-flow FCT",
		"scheme", "per_hop_utilization_%", "mean_fct_ms", "p99_fct_ms", "mean_retx", "completed", "launched")
	utils, schemes := multihopUtils(), multihopSchemes()
	for i, row := range r.Rows {
		t.AddRow(schemes[i%len(schemes)], utils[i/len(schemes)]*100, row[colMeanFCT], row[colP99FCT],
			row[colMeanRetx], int(row[colCompleted]), int(row[colLaunched]))
	}
	return []*metrics.Table{t}
}
