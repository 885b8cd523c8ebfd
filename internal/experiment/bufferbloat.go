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

// Fig10Result reproduces Fig. 10(a) (mean short-flow FCT vs router
// buffer size) and Fig. 10(b) (normal retransmissions vs buffer size):
// one summary row per (buffer, scheme), buffer-major.
type Fig10Result struct {
	Rows []fleet.Row
}

// Fig10 runs the sweep, one universe per (buffer, scheme) cell.
func Fig10(seed uint64, sc Scale) *Fig10Result {
	horizon := sc.horizon(bufferbloatHorizon)
	bufs := bufferbloatBuffers()
	schemes := bufferbloatSchemes()
	rows := grid(sc, len(bufs), len(schemes), func(bi, si int) string {
		return fmt.Sprintf("fig10 %s buffer %dKB", schemes[si], bufs[bi]/1000)
	}, func(bi, si int) fleet.Row {
		return runBufferbloatCell(seed^uint64(bufs[bi])*2654435761,
			netem.DumbbellConfig{Pairs: 4, BufferBytes: bufs[bi]}, nil, schemes[si], horizon)
	})
	return &Fig10Result{Rows: rows}
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
	arrivals := workload.PoissonArrivalsCached(s.Rng.ForkNamed("arrivals"),
		workload.Fixed{Bytes: PlanetLabFlowBytes}, bufferbloatInterval, horizon-5*sim.Second)
	for _, a := range arrivals {
		s.StartFlowAt(a.At.Add(5*sim.Second), inst, a.Bytes)
	}
	s.Run(horizon + 60*sim.Second)

	return summaryRow(&s.World, schemeName, len(arrivals))
}

// Tables renders both panels.
func (r *Fig10Result) Tables() []*metrics.Table {
	a := metrics.NewTable("Fig.10a Mean short-flow FCT vs router buffer",
		"scheme", "buffer_KB", "mean_fct_ms", "completed", "launched")
	b := metrics.NewTable("Fig.10b Normal retransmissions vs router buffer",
		"scheme", "buffer_KB", "mean_normal_retx")
	bufs, schemes := bufferbloatBuffers(), bufferbloatSchemes()
	for i, row := range r.Rows {
		name, kb := schemes[i%len(schemes)], bufs[i/len(schemes)]/1000
		a.AddRow(name, kb, row[colMeanFCT], int(row[colCompleted]), int(row[colLaunched]))
		b.AddRow(name, kb, row[colMeanRetx])
	}
	return []*metrics.Table{a, b}
}
