package workload

import (
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// PathSpec describes one end-to-end wide-area path for the
// population-style experiments (PlanetLab §4.2.1, home networks §4.2.2).
type PathSpec struct {
	Label       string
	RTT         sim.Duration
	RateBps     int64
	UpRateBps   int64 // 0 = symmetric
	BufferBytes int
	LossProb    float64
}

// ToConfig converts the spec to the netem path configuration.
func (p PathSpec) ToConfig() netem.PathConfig {
	return netem.PathConfig{
		RateBps: p.RateBps, UpRateBps: p.UpRateBps,
		RTT: p.RTT, BufferBytes: p.BufferBytes, LossProb: p.LossProb,
	}
}

// PlanetLabPopulation draws n wide-area path specs with the
// heterogeneity the paper reports for its 2.6K-pair PlanetLab
// experiment: RTTs spanning 0.2–400 ms (log-uniform — PlanetLab pairs
// range from same-site to intercontinental), research-network bottleneck
// bandwidths spanning a few Mbps to a Gbps, router buffers from shallow
// to bloated, and a minority of paths with non-congestive loss.
//
// The parameters are calibrated (see workload tests) so that, as in the
// paper, roughly 75 % of 100 KB transfers complete without any packet
// loss while the rest hit queue overflow or random loss.
func PlanetLabPopulation(rng *sim.Rand, n int) []PathSpec {
	specs := make([]PathSpec, n)
	for i := range specs {
		r := rng.Fork()
		// RTTs: a mixture matching 100 hosts spread over five
		// continents — a few same-site pairs, mostly continental and
		// intercontinental distances. The paper reports the 0.2–400 ms
		// range; the mass sits around ~100 ms (PlanetLab medians).
		var rttMs float64
		switch u := r.Float64(); {
		case u < 0.05:
			rttMs = r.LogUniform(0.2, 5) // same site / metro
		case u < 0.25:
			rttMs = r.LogUniform(5, 40) // regional
		case u < 0.80:
			rttMs = r.LogUniform(40, 150) // continental
		default:
			rttMs = r.LogUniform(150, 400) // intercontinental
		}
		rtt := sim.Duration(rttMs * float64(sim.Millisecond))
		rate := int64(r.LogUniform(3, 1000) * float64(netem.Mbps))
		// Buffers: log-uniform from shallow (16 KB) to bloated
		// (1 MB); many PlanetLab-era bottlenecks had buffers well
		// under the burst size of an aggressive first RTT.
		buf := int(r.LogUniform(16<<10, 1<<20))
		loss := 0.0
		if r.Bool(0.12) {
			loss = r.LogUniform(1e-4, 2e-2)
		}
		specs[i] = PathSpec{
			Label:       "planetlab",
			RTT:         rtt,
			RateBps:     rate,
			BufferBytes: buf,
			LossProb:    loss,
		}
	}
	return specs
}

// HomeProfile identifies one of the four §4.2.2 access networks.
type HomeProfile struct {
	Name      string
	DownBps   int64
	UpBps     int64
	AccessRTT sim.Duration // latency contributed by the access segment
	Buffer    int
	LossProb  float64
}

// HomeProfiles returns the four measured access networks: AT&T DSL
// behind a home wireless router (~6 Mbps down), Comcast wired cable
// (25 Mbps down), a shared whole-building WiFi, and a campus wired
// connection. Rates are the paper's; latency/loss/buffer values are the
// plausible access-technology characteristics that reproduce the paper's
// qualitative result (largest Halfback win on the fast wired links,
// smallest on the low-bandwidth wireless DSL).
func HomeProfiles() []HomeProfile {
	return []HomeProfile{
		{
			Name: "AT&T-DSL-wireless", DownBps: 6 * netem.Mbps, UpBps: 1 * netem.Mbps,
			AccessRTT: 35 * sim.Millisecond, Buffer: 96 << 10, LossProb: 0.015,
		},
		{
			Name: "Comcast-wired", DownBps: 25 * netem.Mbps, UpBps: 5 * netem.Mbps,
			AccessRTT: 12 * sim.Millisecond, Buffer: 256 << 10, LossProb: 0.001,
		},
		{
			Name: "ConnectivityU-WiFi", DownBps: 15 * netem.Mbps, UpBps: 8 * netem.Mbps,
			AccessRTT: 18 * sim.Millisecond, Buffer: 128 << 10, LossProb: 0.02,
		},
		{
			Name: "ConnectivityU-wired", DownBps: 100 * netem.Mbps, UpBps: 100 * netem.Mbps,
			AccessRTT: 3 * sim.Millisecond, Buffer: 256 << 10, LossProb: 0.0002,
		},
	}
}

// HomePopulation draws one path spec per (profile, server) pair: the
// paper's clients fetched 100 KB flows from 170 PlanetLab servers, so
// the end-to-end RTT is the access latency plus a wide-area server RTT.
func HomePopulation(rng *sim.Rand, profile HomeProfile, servers int) []PathSpec {
	specs := make([]PathSpec, servers)
	for i := range specs {
		r := rng.Fork()
		serverRTT := sim.Duration(r.LogUniform(10, 250) * float64(sim.Millisecond))
		specs[i] = PathSpec{
			Label:       profile.Name,
			RTT:         profile.AccessRTT + serverRTT,
			RateBps:     profile.DownBps,
			UpRateBps:   profile.UpBps,
			BufferBytes: profile.Buffer,
			LossProb:    profile.LossProb,
		}
	}
	return specs
}

// Deprecated: PlanetLabPopulationCached is PlanetLabPopulation.
func PlanetLabPopulationCached(rng *sim.Rand, n int) []PathSpec { return PlanetLabPopulation(rng, n) }
