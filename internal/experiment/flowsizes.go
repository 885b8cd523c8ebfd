package experiment

import (
	"sort"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// Fig. 11 configuration (§4.2.4): flows drawn from measured size
// distributions (truncated at 1 MB) arrive as a Poisson process tuned to
// 25 % bottleneck utilization; FCT is reported as a function of flow
// size.
const (
	fig11Utilization = 0.25
	fig11Horizon     = 400 * sim.Second
)

// fig11SizeBuckets are the bin edges (bytes) for the FCT-vs-size curves.
func fig11SizeBuckets() []int {
	return []int{
		10 << 10, 25 << 10, 50 << 10, 75 << 10, 100 << 10,
		150 << 10, 200 << 10, 300 << 10, 450 << 10, 700 << 10, 1 << 20,
	}
}

// fig11 reproduces Fig. 11(a,b,c): one FCT-by-size row per
// (distribution, scheme) universe.
var fig11 = &Spec{ID: "11", Title: "FCT vs flow size (3 distributions)",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		horizon := sc.horizon(fig11Horizon)
		dists := workload.EvaluatedDistributions()
		schemes := paperSchemes()
		return []Axis{{"distribution", labels(dists, (*workload.Empirical).Name)}, {"scheme", schemes}},
			func(at []int) (fleet.Row, error) {
				return runFig11Cell(seed, dists[at[0]], schemes[at[1]], horizon), nil
			}
	},
	Tables: func(g *Grid) []*metrics.Table {
		t := metrics.NewTable("Fig.11 FCT vs flow size at 25% utilization",
			"distribution", "scheme", "size_KB", "mean_fct_ms", "n")
		g.Each(func(at []int, row fleet.Row) {
			addSizeRows(t, row, g.Axes[0].Labels[at[0]], g.Axes[1].Labels[at[1]])
		})
		return []*metrics.Table{t}
	},
}

// runFig11Cell returns the cell's FCT-by-size row: for size bucket i,
// the mean FCT (ms) and the number of completed flows in columns 2i and
// 2i+1.
func runFig11Cell(seed uint64, dist workload.SizeDist, schemeName string, horizon sim.Duration) fleet.Row {
	cfg := netem.DumbbellConfig{Pairs: 8}.Defaulted()
	s := NewDumbbellSim(seed^hashString(dist.Name()+schemeName), cfg)
	inst := scheme.MustNew(schemeName)
	interarrival := workload.MeanInterarrivalFor(dist.Mean(), fig11Utilization, cfg.BottleneckBps)
	if interarrival == 0 {
		interarrival = sim.Millisecond
	}
	arrivals := workload.PoissonArrivals(s.Rng.ForkNamed("arrivals"), dist, interarrival, horizon)
	for _, a := range arrivals {
		s.StartFlowAt(a.At, inst, a.Bytes)
	}
	s.Run(horizon + 60*sim.Second)

	buckets := fig11SizeBuckets()
	byBucket := make([][]float64, len(buckets))
	for _, st := range s.Finished {
		if !st.Completed {
			continue
		}
		idx := sort.SearchInts(buckets, st.FlowBytes)
		if idx >= len(buckets) {
			idx = len(buckets) - 1
		}
		byBucket[idx] = append(byBucket[idx], st.FCT().Seconds()*1000)
	}
	row := make(fleet.Row, 2*len(buckets))
	for i, xs := range byBucket {
		if len(xs) > 0 {
			row[2*i], row[2*i+1] = metrics.Summarize(xs).Mean, float64(len(xs))
		}
	}
	return row
}

// addSizeRows renders one FCT-by-size row: a table row per non-empty
// size bucket, after the given leading columns.
func addSizeRows(t *metrics.Table, row fleet.Row, lead ...any) {
	for i, hi := range fig11SizeBuckets() {
		if n := int(row[2*i+1]); n > 0 {
			t.AddRow(append(lead, hi/1024, row[2*i], n)...)
		}
	}
}
