package experiment

import (
	"fmt"

	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// HomeServers is the paper's server-population size for the home-access
// experiment (§4.2.2: "servers are on 170 PlanetLab nodes").
const HomeServers = 170

// Fig9Result reproduces Fig. 9: FCT CDFs of 100 KB downloads into four
// residential access networks, Halfback vs TCP.
type Fig9Result struct {
	// FCTms[profile][scheme] holds completed-flow FCTs in ms.
	FCTms map[string]map[string][]float64
	order []string
}

// Fig9 runs the experiment: for each access profile and each of the 170
// server RTT draws, one cold download per scheme. The populations are
// drawn serially (their generator forks from one shared parent), then
// every (profile, server, scheme) download is an independent universe.
func Fig9(seed uint64, sc Scale) *Fig9Result {
	rng := sim.NewRand(seed)
	res := &Fig9Result{FCTms: make(map[string]map[string][]float64)}
	schemes := []string{scheme.Halfback, scheme.TCP}
	servers := sc.trials(HomeServers)
	profiles := workload.HomeProfiles()
	specs := make([][]workload.PathSpec, len(profiles))
	for i, profile := range profiles {
		res.order = append(res.order, profile.Name)
		specs[i] = workload.HomePopulationCached(rng.ForkNamed(profile.Name), profile, servers)
	}

	// Exported fields: fetch cells ride the gob-encoded result journal
	// when the run is crash-safe (DESIGN.md §9).
	type fetch struct {
		Completed bool
		FctMs     float64
	}
	fetches := grid(sc, len(profiles)*servers, len(schemes), func(r, si int) string {
		return fmt.Sprintf("fig9 %s server %d scheme %s", profiles[r/servers].Name, r%servers, schemes[si])
	}, func(r, si int) fetch {
		pi := r % servers
		st := fetchCold(seed^uint64(pi*977+si+13), specs[r/servers][pi].ToConfig(),
			scheme.MustNew(schemes[si]), PlanetLabFlowBytes, 120*sim.Second)
		return fetch{Completed: st.Completed, FctMs: st.FCT().Seconds() * 1000}
	})

	for i, profile := range profiles {
		per := make(map[string][]float64)
		for pi := 0; pi < servers; pi++ {
			for si, name := range schemes {
				f := fetches[(i*servers+pi)*len(schemes)+si]
				if f.Completed {
					per[name] = append(per[name], f.FctMs)
				}
			}
		}
		res.FCTms[profile.Name] = per
	}
	return res
}

// MedianReduction returns Halfback's median-FCT reduction vs TCP for one
// profile, as a fraction (the paper reports 50 %, 68 %, 50 % and 18 %).
func (r *Fig9Result) MedianReduction(profile string) float64 {
	per := r.FCTms[profile]
	hb := metrics.Summarize(per[scheme.Halfback]).Median()
	tcp := metrics.Summarize(per[scheme.TCP]).Median()
	if tcp <= 0 {
		return 0
	}
	return 1 - hb/tcp
}

// Tables renders the CDFs and the median-reduction headline.
func (r *Fig9Result) Tables() []*metrics.Table {
	cdf := metrics.NewTable("Fig.9 Home-network FCT (CDF)", "network", "scheme", "fct_ms", "percentile")
	head := metrics.NewTable("Fig.9 headline: Halfback median FCT reduction vs TCP",
		"network", "tcp_p50_ms", "halfback_p50_ms", "reduction_%")
	for _, profile := range r.order {
		per := r.FCTms[profile]
		for _, name := range []string{scheme.Halfback, scheme.TCP} {
			for _, pt := range metrics.SampleCDF(metrics.CDF(per[name]), 15) {
				cdf.AddRow(profile, name, pt.X, pt.P*100)
			}
		}
		head.AddRow(profile,
			metrics.Summarize(per[scheme.TCP]).Median(),
			metrics.Summarize(per[scheme.Halfback]).Median(),
			r.MedianReduction(profile)*100)
	}
	return []*metrics.Table{head, cdf}
}
