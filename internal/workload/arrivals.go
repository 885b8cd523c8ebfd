package workload

import (
	"halfback/internal/sim"
)

// MeanInterarrivalFor returns the mean flow interarrival time that makes
// Poisson arrivals of flows with the given mean size offer the target
// utilization of a link: interval = meanBytes·8 / (util · rate).
func MeanInterarrivalFor(meanFlowBytes float64, utilization float64, linkRateBps int64) sim.Duration {
	if utilization <= 0 || linkRateBps <= 0 || meanFlowBytes <= 0 {
		panic("workload: utilization, rate and flow size must be positive")
	}
	seconds := meanFlowBytes * 8 / (utilization * float64(linkRateBps))
	return sim.Duration(seconds * float64(sim.Second))
}

// Arrival is one scheduled flow: when it starts and how many bytes it
// carries.
type Arrival struct {
	At    sim.Time
	Bytes int
}

// PoissonArrivals generates a schedule of flows with exponential
// interarrival times (the paper's default arrival process, §4.1) and
// sizes drawn from dist, covering [0, horizon). The schedule is
// materialised up front so different schemes can be run against the
// *same* arrival schedule, as §4.3.2 requires for low-variance
// comparisons.
func PoissonArrivals(rng *sim.Rand, dist SizeDist, meanInterarrival sim.Duration, horizon sim.Duration) []Arrival {
	if meanInterarrival <= 0 {
		panic("workload: interarrival must be positive")
	}
	var out []Arrival
	t := sim.Time(0).Add(rng.ExpDuration(meanInterarrival))
	for t < sim.Time(horizon) {
		out = append(out, Arrival{At: t, Bytes: dist.Sample(rng)})
		t = t.Add(rng.ExpDuration(meanInterarrival))
	}
	return out
}
