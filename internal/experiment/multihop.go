package experiment

import (
	"fmt"

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
type MultihopResult struct {
	Rows []MultihopRow
}

// MultihopRow is one (scheme, per-hop utilization) cell.
type MultihopRow struct {
	Scheme      string
	Utilization float64
	MeanFCTms   float64
	P99FCTms    float64
	MeanRetx    float64
	Completed   int
	Launched    int
}

const multihopHorizon = 120 * sim.Second

func multihopSchemes() []string {
	return []string{scheme.TCP, scheme.TCP10, scheme.JumpStart, scheme.Halfback}
}

// Multihop runs the grid, one universe per (utilization, scheme) cell.
func Multihop(seed uint64, sc Scale) *MultihopResult {
	horizon := sc.horizon(multihopHorizon)
	utils := []float64{0.10, 0.30, 0.50}
	schemes := multihopSchemes()
	rows := grid(sc, len(utils), len(schemes), func(ui, si int) string {
		return fmt.Sprintf("multihop %s @%.0f%%", schemes[si], utils[ui]*100)
	}, func(ui, si int) MultihopRow {
		return runMultihopCell(seed, schemes[si], utils[ui], horizon)
	})
	return &MultihopResult{Rows: rows}
}

func runMultihopCell(seed uint64, schemeName string, util float64, horizon sim.Duration) MultihopRow {
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

	fct, meanRetx := summarizeFlows(w.Finished, schemeName)
	return MultihopRow{
		Scheme: schemeName, Utilization: util,
		MeanFCTms: fct.Mean, P99FCTms: fct.Percentile(99), MeanRetx: meanRetx,
		Completed: fct.N, Launched: launched,
	}
}

// Cell returns a row for tests.
func (r *MultihopResult) Cell(schemeName string, util float64) (MultihopRow, bool) {
	for _, row := range r.Rows {
		if row.Scheme == schemeName && abs(row.Utilization-util) < 1e-9 {
			return row, true
		}
	}
	return MultihopRow{}, false
}

// Tables renders the grid.
func (r *MultihopResult) Tables() []*metrics.Table {
	t := metrics.NewTable("Multihop parking lot (3 bottlenecks): chain-flow FCT",
		"scheme", "per_hop_utilization_%", "mean_fct_ms", "p99_fct_ms", "mean_retx", "completed", "launched")
	for _, row := range r.Rows {
		t.AddRow(row.Scheme, row.Utilization*100, row.MeanFCTms, row.P99FCTms,
			row.MeanRetx, row.Completed, row.Launched)
	}
	return []*metrics.Table{t}
}
