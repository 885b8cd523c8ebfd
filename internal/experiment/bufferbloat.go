package experiment

import (
	"fmt"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// Fig. 10 configuration (§4.2.3): one long-running background TCP flow
// plus a 100 KB short flow every 10 s on average, for 600 s, with the
// bottleneck buffer swept from very shallow to bloated.
const (
	bufferbloatHorizon  = 600 * sim.Second
	bufferbloatInterval = 10 * sim.Second
)

// bufferbloatBuffers are the swept buffer sizes in bytes (paper x-axis:
// 0–600 KB).
func bufferbloatBuffers() []int {
	return []int{10_000, 25_000, 50_000, 115_000, 200_000, 300_000, 450_000, 600_000}
}

// bufferbloatSchemes includes TCP-Cache and PCP, which Fig. 10 plots.
func bufferbloatSchemes() []string {
	return []string{
		scheme.TCP, scheme.TCP10, scheme.TCPCache, scheme.Reactive,
		scheme.Proactive, scheme.JumpStart, scheme.PCP, scheme.Halfback,
	}
}

// fig10 reproduces Fig. 10(a) (mean short-flow FCT vs router buffer
// size) and Fig. 10(b) (normal retransmissions vs buffer size): one
// universe per (buffer, scheme) cell.
var fig10 = &Spec{ID: "10", Title: "Bufferbloat: FCT & retransmissions vs buffer",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		horizon := sc.horizon(bufferbloatHorizon)
		bufs, schemes := bufferbloatBuffers(), bufferbloatSchemes()
		kb := func(b int) string { return fmt.Sprintf("%dKB", b/1000) }
		return []Axis{{"buffer", labels(bufs, kb)}, {"scheme", schemes}}, func(at []int) (fleet.Row, error) {
			buf := bufs[at[0]]
			return runBufferbloatCell(seed^uint64(buf)*2654435761,
				netem.DumbbellConfig{Pairs: 4, BufferBytes: buf}, nil, schemes[at[1]], horizon), nil
		}
	},
	Tables: func(g *Grid) []*metrics.Table {
		a := metrics.NewTable("Fig.10a Mean short-flow FCT vs router buffer",
			"scheme", "buffer_KB", "mean_fct_ms", "completed", "launched")
		b := metrics.NewTable("Fig.10b Normal retransmissions vs router buffer",
			"scheme", "buffer_KB", "mean_normal_retx")
		bufs := bufferbloatBuffers()
		g.Each(func(at []int, row fleet.Row) {
			name, kb := g.Axes[1].Labels[at[1]], bufs[at[0]]/1000
			a.AddRow(name, kb, row[colMeanFCT], int(row[colCompleted]), int(row[colLaunched]))
			b.AddRow(name, kb, row[colMeanRetx])
		})
		return []*metrics.Table{a, b}
	},
}

// runBufferbloatCell runs the §4.2.3 scenario in one universe built from
// the already-mixed seed and cfg: a long-running background TCP flow on
// pair 0 plus Poisson 100 KB short flows of schemeName. queue, when
// non-nil, installs the queue discipline before any traffic starts.
func runBufferbloatCell(seed uint64, cfg netem.DumbbellConfig, queue func(*DumbbellSim), schemeName string, horizon sim.Duration) fleet.Row {
	s := NewDumbbellSim(seed, cfg)
	if queue != nil {
		queue(s)
	}
	inst := scheme.MustNew(schemeName)
	// Background long flow: plain TCP for the whole run (pair 0), with
	// an autotuned-size receive window so it can actually occupy a
	// bloated buffer (the short-flow schemes keep the paper's 141 KB).
	bgOpts := s.Opts
	bgOpts.FlowWindow = 4 << 20
	s.StartFlowOn(0, scheme.MustNew(scheme.TCP), 2_000_000_000, 0, bgOpts, nil)

	// Short flows every 10 s on average, exponential interarrivals,
	// starting after the background flow has filled the pipe.
	arrivals := workload.PoissonArrivals(s.Rng.ForkNamed("arrivals"),
		workload.Fixed{Bytes: PlanetLabFlowBytes}, bufferbloatInterval, horizon-5*sim.Second)
	for _, a := range arrivals {
		s.StartFlowAt(a.At.Add(5*sim.Second), inst, a.Bytes)
	}
	s.Run(horizon + 60*sim.Second)

	return summaryRow(&s.World, schemeName, len(arrivals))
}
