package experiment

import (
	"fmt"

	"halfback/internal/fleet"
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
	// Rows holds one cold-download row per (profile, server, scheme),
	// profile-major.
	Rows     []fleet.Row
	profiles []string
	servers  int
}

func fig9Schemes() []string { return []string{scheme.Halfback, scheme.TCP} }

// Fig9 runs the experiment: for each access profile and each of the 170
// server RTT draws, one cold download per scheme. The populations are
// drawn serially (their generator forks from one shared parent), then
// every (profile, server, scheme) download is an independent universe.
func Fig9(seed uint64, sc Scale) *Fig9Result {
	rng := sim.NewRand(seed)
	schemes := fig9Schemes()
	servers := sc.trials(HomeServers)
	profiles := workload.HomeProfiles()
	res := &Fig9Result{servers: servers}
	specs := make([][]workload.PathSpec, len(profiles))
	for i, profile := range profiles {
		res.profiles = append(res.profiles, profile.Name)
		specs[i] = workload.HomePopulationCached(rng.ForkNamed(profile.Name), profile, servers)
	}
	res.Rows = grid(sc, len(profiles)*servers, len(schemes), func(r, si int) string {
		return fmt.Sprintf("fig9 %s server %d scheme %s", profiles[r/servers].Name, r%servers, schemes[si])
	}, func(r, si int) fleet.Row {
		pi := r % servers
		return fetchRow(seed^uint64(pi*977+si+13), specs[r/servers][pi], schemes[si])
	})
	return res
}

// Tables renders the CDFs and the headline: Halfback's median-FCT
// reduction vs TCP per profile (the paper reports 50 %, 68 %, 50 % and
// 18 %).
func (r *Fig9Result) Tables() []*metrics.Table {
	cdf := metrics.NewTable("Fig.9 Home-network FCT (CDF)", "network", "scheme", "fct_ms", "percentile")
	head := metrics.NewTable("Fig.9 headline: Halfback median FCT reduction vs TCP",
		"network", "tcp_p50_ms", "halfback_p50_ms", "reduction_%")
	schemes := fig9Schemes()
	per := r.servers * len(schemes)
	for p, profile := range r.profiles {
		fcts := make(map[string][]float64)
		for i, row := range r.Rows[p*per : (p+1)*per] {
			if row[colDone] != 0 {
				name := schemes[i%len(schemes)]
				fcts[name] = append(fcts[name], row[colFCT])
			}
		}
		for _, name := range schemes {
			for _, pt := range metrics.SampleCDF(metrics.CDF(fcts[name]), 15) {
				cdf.AddRow(profile, name, pt.X, pt.P*100)
			}
		}
		tcp := metrics.Summarize(fcts[scheme.TCP]).Median()
		hb := metrics.Summarize(fcts[scheme.Halfback]).Median()
		reduction := 0.0
		if tcp > 0 {
			reduction = 1 - hb/tcp
		}
		head.AddRow(profile, tcp, hb, reduction*100)
	}
	return []*metrics.Table{head, cdf}
}
