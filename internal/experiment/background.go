package experiment

import (
	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// fig2 reproduces Fig. 2: the fraction of traffic (bytes, not flows)
// carried by flows up to each size, for the three measured distributions
// — the motivation for treating sub-141 KB flows aggressively. Both CDFs
// are evaluated by sampling each distribution; there is no sweep.
func fig2(seed uint64, sc Scale) Result {
	rng := sim.NewRand(seed)
	sizes := []float64{
		500, 1 << 10, 5 << 10, 20 << 10, 60 << 10, 141 << 10,
		300 << 10, 600 << 10, 1 << 20,
	}
	samples := sc.trials(200000)
	t := metrics.NewTable("Fig.2 Fraction of traffic by flow size",
		"distribution", "size_bytes", "traffic_cdf", "flow_cdf")
	for _, dist := range workload.EvaluatedDistributions() {
		r := rng.ForkNamed(dist.Name())
		xs := make([]float64, samples)
		for i := range xs {
			xs[i] = float64(dist.Sample(r))
		}
		flowCDF := metrics.CDF(xs)
		// The stream still forks once more per distribution, where a
		// never-rendered below-141 KB estimate used to draw, so the
		// samples of the distributions after it stay put.
		rng.ForkNamed(dist.Name() + "b")
		for _, size := range sizes {
			var total, below float64
			for _, x := range xs {
				total += x
				if x <= size {
					below += x
				}
			}
			t.AddRow(dist.Name(), size, below/total, metrics.CDFAt(flowCDF, size))
		}
	}
	return render(func() []*metrics.Table { return []*metrics.Table{t} })
}

// table1 renders the paper's Table 1: the design space of startup phases
// and loss-recovery mechanisms, annotated with which evaluated scheme
// occupies each point.
func table1() []*metrics.Table {
	t := metrics.NewTable("Table 1: startup / recovery design space",
		"scheme", "startup_phase", "proactive_bandwidth", "retx_direction", "retx_rate")
	t.AddRow(scheme.TCP, "slow start (ICW=2)", "0%", "original order", "cwnd burst")
	t.AddRow(scheme.TCP10, "slow start (ICW=10)", "0%", "original order", "cwnd burst")
	t.AddRow(scheme.TCPCache, "cached cwnd/ssthresh", "0%", "original order", "cwnd burst")
	t.AddRow(scheme.Reactive, "slow start (ICW=2)", "0% (+tail probe)", "original order", "cwnd burst")
	t.AddRow(scheme.Proactive, "slow start (ICW=2)", "100%", "original order", "with data")
	t.AddRow(scheme.JumpStart, "pace flow in 1 RTT", "0%", "original order", "line rate")
	t.AddRow(scheme.PCP, "probe trains", "0%", "original order", "paced")
	t.AddRow(scheme.Halfback, "pace flow in 1 RTT", "~50%", "reverse order", "ACK-clocked")
	t.AddRow(scheme.HalfbackForward, "pace flow in 1 RTT", "~50%", "forward order", "ACK-clocked")
	t.AddRow(scheme.HalfbackBurst, "pace flow in 1 RTT", "~50%", "reverse order", "line rate")
	return []*metrics.Table{t}
}
