package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// homeServers is the paper's server-population size for the home-access
// experiment (§4.2.2: "servers are on 170 PlanetLab nodes").
const homeServers = 170

// fig9 reproduces Fig. 9: FCT CDFs of 100 KB downloads into four
// residential access networks, Halfback vs TCP. For each access profile
// and each of the 170 server RTT draws, one cold download per scheme. The
// populations are drawn serially (their generator forks from one shared
// parent), then every (profile, server, scheme) download is an
// independent universe.
var fig9 = &Spec{ID: "9", Title: "Home access networks",
	Plan: func(seed uint64, sc Scale) ([]Axis, func([]int) (fleet.Row, error)) {
		rng := sim.NewRand(seed)
		schemes := []string{scheme.Halfback, scheme.TCP}
		servers := sc.trials(homeServers)
		profiles := workload.HomeProfiles()
		specs := make([][]workload.PathSpec, len(profiles))
		for i, profile := range profiles {
			specs[i] = workload.HomePopulationCached(rng.ForkNamed(profile.Name), profile, servers)
		}
		networks := labels(profiles, func(p workload.HomeProfile) string { return p.Name })
		return []Axis{{"network", networks}, {"server", indexLabels(servers)}, {"scheme", schemes}},
			func(at []int) (fleet.Row, error) {
				return fetchRow(seed^uint64(at[1]*977+at[2]+13), specs[at[0]][at[1]], schemes[at[2]]), nil
			}
	},
	// The CDFs and the headline: Halfback's median-FCT reduction vs TCP
	// per profile (the paper reports 50 %, 68 %, 50 % and 18 %).
	Tables: func(g *Grid) []*metrics.Table {
		cdf := metrics.NewTable("Fig.9 Home-network FCT (CDF)", "network", "scheme", "fct_ms", "percentile")
		head := metrics.NewTable("Fig.9 headline: Halfback median FCT reduction vs TCP",
			"network", "tcp_p50_ms", "halfback_p50_ms", "reduction_%")
		networks, schemes := g.Axes[0].Labels, g.Axes[2].Labels
		fcts := make([]map[string][]float64, len(networks))
		for p := range fcts {
			fcts[p] = make(map[string][]float64)
		}
		g.Each(func(at []int, row fleet.Row) {
			if row[colDone] != 0 {
				name := schemes[at[2]]
				fcts[at[0]][name] = append(fcts[at[0]][name], row[colFCT])
			}
		})
		for p, network := range networks {
			for _, name := range schemes {
				for _, pt := range metrics.SampleCDF(metrics.CDF(fcts[p][name]), 15) {
					cdf.AddRow(network, name, pt.X, pt.P*100)
				}
			}
			tcp := metrics.Summarize(fcts[p][scheme.TCP]).Median()
			hb := metrics.Summarize(fcts[p][scheme.Halfback]).Median()
			reduction := 0.0
			if tcp > 0 {
				reduction = 1 - hb/tcp
			}
			head.AddRow(network, tcp, hb, reduction*100)
		}
		return []*metrics.Table{head, cdf}
	},
}
