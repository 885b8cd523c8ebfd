package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// A workload is one CLI invocation, repeated closed-loop: the next
// process starts only after the previous one exited. All repetitions of
// a run share the seed.
type workloadDef struct {
	name string
	bin  string // "halfback-sim" or "fctsweep"
	// args renders the command line; journal is "" for workloads that
	// keep none.
	args func(seed uint64, journal string) []string
	// journal: the invocation writes a cell journal. dist: it also forks
	// loopback workers and prints the coordinator's dist: line. parallel:
	// it needs two CPUs to mean anything.
	journal, dist, parallel bool
	// gcPercent is the GC setting the CLI's own main installs, mirrored
	// for the in-process reference so the two are comparable.
	gcPercent int
	// cells is the number of fleet cells (universes) one invocation runs.
	cells int
	// render produces, in process and serially, the bytes the CLI must
	// print (banner lines aside).
	render func(seed uint64, tr *tracer) rendered
}

// rendered is one in-process run: the output bytes and where the time
// went, split at the layer boundaries.
type rendered struct {
	out                    []byte
	runS, tablesS, renderS float64
}

func (r rendered) totalS() float64 { return r.runS + r.tablesS + r.renderS }

// Workload sizes put one invocation near one second: short enough that a
// run of -seconds holds enough repetitions for a steady median, long
// enough that process start-up does not dominate any of them.
const (
	dumbbellScale  = 0.1
	planetlabScale = 1.0
	fleetScale     = 0.25
	sweepHorizon   = 60 * time.Second
	sweepAdversity = "torture"
)

var (
	sweepSchemes = []string{scheme.Halfback, scheme.JumpStart, scheme.TCP, scheme.Proactive}
	sweepUtils   = []int{10, 30, 50, 70}
)

// planetLabCells is pairs × the six schemes of Figs. 5–8.
func planetLabCells(scale float64) int {
	return max(int(experiment.PlanetLabPairs*scale), 1) * 6
}

func exhibitArgs(fig string, scale float64, extra ...string) func(uint64, string) []string {
	return func(seed uint64, journal string) []string {
		a := []string{"-fig", fig, "-scale", fmtFloat(scale), "-seed", fmtSeed(seed)}
		a = append(a, extra...)
		if journal != "" {
			a = append(a, "-journal", journal)
		}
		return a
	}
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
func fmtSeed(s uint64) string   { return strconv.FormatUint(s, 10) }

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

var workloads = []workloadDef{
	{
		name: "dumbbell_serial",
		bin:  "halfback-sim", args: exhibitArgs("12", dumbbellScale, "-workers", "1"),
		gcPercent: 400, cells: 8 * 18,
		render: renderExhibit("12", dumbbellScale),
	},
	{
		name: "planetlab_cold",
		bin:  "halfback-sim", args: exhibitArgs("6", planetlabScale, "-workers", "1"),
		gcPercent: 400, cells: planetLabCells(planetlabScale),
		render: renderExhibit("6", planetlabScale),
	},
	{
		name: "fleet_journal",
		bin:  "halfback-sim", args: exhibitArgs("6", fleetScale, "-workers", "2"),
		journal: true, parallel: true,
		gcPercent: 400, cells: planetLabCells(fleetScale),
		render: renderExhibit("6", fleetScale),
	},
	{
		name: "dist_loopback",
		bin:  "halfback-sim", args: exhibitArgs("6", fleetScale, "-distributed", "2"),
		journal: true, dist: true, parallel: true,
		gcPercent: 400, cells: planetLabCells(fleetScale),
		render: renderExhibit("6", fleetScale),
	},
	{
		name: "fctsweep_adverse",
		bin:  "fctsweep",
		args: func(seed uint64, _ string) []string {
			return []string{
				"-schemes", strings.Join(sweepSchemes, ","), "-utils", joinInts(sweepUtils),
				"-horizon", sweepHorizon.String(), "-workers", "1",
				"-adversity", sweepAdversity, "-seed", fmtSeed(seed),
			}
		},
		gcPercent: 100, cells: len(sweepSchemes) * len(sweepUtils),
		render: renderSweep,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// renderExhibit replays what halfback-sim prints for one exhibit, minus
// the "=== " banner lines: every table, a blank line after each, and the
// blank line that follows the closing banner.
func renderExhibit(fig string, scale float64) func(uint64, *tracer) rendered {
	return func(seed uint64, tr *tracer) rendered {
		e, err := experiment.Lookup(fig)
		if err != nil {
			panic(err)
		}
		sc := experiment.Scale{Trials: scale, Horizon: scale, Workers: 1}
		var (
			r    rendered
			res  experiment.Result
			tabs []*metrics.Table
			buf  bytes.Buffer
		)
		r.runS = tr.in("experiment.run", func() { res = e.Run(seed, sc) }).Seconds()
		r.tablesS = tr.in("experiment.tables", func() { tabs = res.Tables() }).Seconds()
		r.renderS = tr.in("metrics.render", func() {
			for _, t := range tabs {
				t.WriteTo(&buf)
				buf.WriteByte('\n')
			}
			buf.WriteByte('\n')
		}).Seconds()
		r.out = buf.Bytes()
		return r
	}
}

// renderSweep re-implements fctsweep's cell program and table from the
// exported packages it is built on (its runCell lives in package main).
// The CLI's output must match it byte for byte, so the two can only
// drift apart loudly.
func renderSweep(seed uint64, tr *tracer) rendered {
	const (
		flowBytes = 100_000
		bufBytes  = 115_000
		rtt       = 60 * time.Millisecond
		rateMbps  = 15
	)
	adv := netem.MustAdversityPreset(sweepAdversity)
	var (
		r    rendered
		rows [][]any
		buf  bytes.Buffer
	)
	r.runS = tr.in("experiment.run", func() {
		for _, name := range sweepSchemes {
			for _, pct := range sweepUtils {
				util := float64(pct) / 100
				cfg := netem.DumbbellConfig{
					Pairs: 16, BottleneckBps: rateMbps * netem.Mbps, RTT: rtt, BufferBytes: bufBytes,
				}.Defaulted()
				s := experiment.NewDumbbellSim(seed, cfg)
				s.D.Bottleneck.SetAdversity(adv)
				s.D.Reverse.SetAdversity(adv)
				inst := scheme.MustNew(name)
				dist := workload.Fixed{Bytes: flowBytes}
				ia := workload.MeanInterarrivalFor(dist.Mean(), util, cfg.BottleneckBps)
				arrivals := workload.PoissonArrivalsCached(s.Rng.ForkNamed("arrivals"), dist, ia, sweepHorizon)
				for _, a := range arrivals {
					s.StartFlowAt(a.At, inst, a.Bytes)
				}
				s.Run(sim.Duration(sweepHorizon) + 120*sim.Second)

				var fcts, retx []float64
				for _, st := range s.Finished {
					fcts = append(fcts, st.FCT().Seconds()*1000)
					retx = append(retx, float64(st.NormalRetx))
				}
				// The abort column counts protocol aborts only; the
				// horizon's external abort of unfinished flows is not one.
				aborted := 0
				for _, c := range s.Conns() {
					if c.Stats.Aborted && c.Stats.AbortReason != transport.AbortExternal {
						aborted++
					}
				}
				sum := metrics.Summarize(fcts)
				rows = append(rows, []any{
					name, util * 100, len(arrivals), sum.Mean, sum.Median(), sum.Percentile(99),
					metrics.Summarize(retx).Mean, s.CompletionRate(), aborted,
				})
			}
		}
	}).Seconds()
	var table *metrics.Table
	r.tablesS = tr.in("experiment.tables", func() {
		table = metrics.NewTable(
			fmt.Sprintf("FCT sweep: %dB flows, %dMbps bottleneck, %v RTT, %dB buffer", flowBytes, rateMbps, rtt, bufBytes),
			"scheme", "utilization_%", "flows", "mean_fct_ms", "p50_ms", "p99_ms", "mean_norm_retx", "completion", "aborted")
		for _, row := range rows {
			table.AddRow(row...)
		}
	}).Seconds()
	r.renderS = tr.in("metrics.render", func() { table.WriteTo(&buf) }).Seconds()
	r.out = buf.Bytes()
	return r
}
