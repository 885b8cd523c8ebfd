package experiment

import (
	"fmt"
	"slices"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// Fig. 12 / Fig. 17 configuration (§4.3.1, §5): only 100 KB short flows,
// all running the scheme under test, with offered load swept from 5 % to
// 90 % of the bottleneck in 5 % steps.
const (
	capacityHorizon = 120 * sim.Second
	// The paper defines feasible capacity as "the maximum achievable
	// network utilization before the throughput collapses", identified
	// by "a spike in packet loss and FCT" (§4.3.1). We detect the
	// spike with a hybrid criterion: a point has collapsed when mean
	// FCT exceeds max(collapseFactor × the scheme's own low-load FCT,
	// collapseFloor) or flows stop completing. The absolute floor
	// corresponds to the knee region of Fig. 12's y-axis (its curves
	// shoot past ~1 s at collapse) and keeps the criterion from
	// penalising low-latency schemes for merely tripling a tiny base.
	collapseFactor = 3.0
	collapseFloor  = 1000.0 // ms
	// collapseCompletion is the minimum completion rate for a point to
	// count as feasible.
	collapseCompletion = 0.95
)

// capacityUtils returns the swept utilizations.
func capacityUtils() []float64 {
	var out []float64
	for u := 0.05; u <= 0.901; u += 0.05 {
		out = append(out, u)
	}
	return out
}

// CapacitySweep holds a full FCT-vs-utilization sweep for a set of
// schemes: one summary row per (scheme, utilization), scheme-major.
// Figs. 12, 17 and the Fig. 1 tradeoff all derive from it.
type CapacitySweep struct {
	Schemes []string
	Utils   []float64
	Rows    []fleet.Row
}

// RunCapacitySweep measures every (scheme, utilization) cell; the cells
// are independent universes and fan out across sc.Workers goroutines.
func RunCapacitySweep(seed uint64, sc Scale, schemes []string) *CapacitySweep {
	horizon := sc.horizon(capacityHorizon)
	utils := capacityUtils()
	rows := grid(sc, len(schemes), len(utils), func(si, ui int) string {
		return fmt.Sprintf("capacity %s @%.0f%%", schemes[si], utils[ui]*100)
	}, func(si, ui int) fleet.Row {
		return runCapacityCell(seed, schemes[si], utils[ui], horizon)
	})
	return &CapacitySweep{Schemes: schemes, Utils: utils, Rows: rows}
}

func runCapacityCell(seed uint64, schemeName string, util float64, horizon sim.Duration) fleet.Row {
	cfg := netem.DumbbellConfig{Pairs: 16}.Defaulted()
	s := NewDumbbellSim(seed^hashString(schemeName)^uint64(util*1000), cfg)
	inst := scheme.MustNew(schemeName)
	dist := workload.Fixed{Bytes: PlanetLabFlowBytes}
	interarrival := workload.MeanInterarrivalFor(dist.Mean(), util, cfg.BottleneckBps)
	arrivals := workload.PoissonArrivalsCached(s.Rng.ForkNamed("arrivals"), dist, interarrival, horizon)
	for _, a := range arrivals {
		s.StartFlowAt(a.At, inst, a.Bytes)
	}
	// Generous drain so slow-but-alive flows can finish; flows that
	// still cannot complete are the collapse signal.
	s.Run(horizon + 120*sim.Second)
	return summaryRow(&s.World, "", len(arrivals))
}

// curve returns a scheme's rows in utilization order; nil for a scheme
// the sweep did not run.
func (cs *CapacitySweep) curve(schemeName string) []fleet.Row {
	si := slices.Index(cs.Schemes, schemeName)
	if si < 0 {
		return nil
	}
	return cs.Rows[si*len(cs.Utils) : (si+1)*len(cs.Utils)]
}

// FeasibleCapacity extracts a scheme's feasible network utilization: the
// highest swept utilization that the scheme reaches without collapsing
// at it or any lower point (mean FCT within collapseFactor of its own
// low-load value and ≥95 % of flows completing).
func (cs *CapacitySweep) FeasibleCapacity(schemeName string) float64 {
	var base float64
	feasible := 0.0
	for ui, p := range cs.curve(schemeName) {
		if base == 0 {
			base = p[colMeanFCT]
			if base == 0 {
				return 0
			}
		}
		threshold := collapseFactor * base
		if threshold < collapseFloor {
			threshold = collapseFloor
		}
		if p[colCompletion] < collapseCompletion || p[colMeanFCT] > threshold {
			break
		}
		feasible = cs.Utils[ui]
	}
	return feasible
}

// LowLoadFCT returns the scheme's mean FCT at the lowest swept
// utilization — the "common case latency" axis of Fig. 1.
func (cs *CapacitySweep) LowLoadFCT(schemeName string) float64 {
	if c := cs.curve(schemeName); len(c) > 0 {
		return c[0][colMeanFCT]
	}
	return 0
}

// MeanFCTAt returns the mean FCT at the given utilization, for tests.
func (cs *CapacitySweep) MeanFCTAt(schemeName string, util float64) (float64, bool) {
	for ui, p := range cs.curve(schemeName) {
		if abs(cs.Utils[ui]-util) < 1e-9 {
			return p[colMeanFCT], true
		}
	}
	return 0, false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (cs *CapacitySweep) sweepTable(title string) *metrics.Table {
	t := metrics.NewTable(title,
		"scheme", "utilization_%", "mean_fct_ms", "p99_fct_ms", "completion", "mean_norm_retx")
	for i, p := range cs.Rows {
		t.AddRow(cs.Schemes[i/len(cs.Utils)], cs.Utils[i%len(cs.Utils)]*100,
			p[colMeanFCT], p[colP99FCT], p[colCompletion], p[colMeanRetx])
	}
	return t
}

func (cs *CapacitySweep) feasibleTable(title string, schemes []string) *metrics.Table {
	t := metrics.NewTable(title, "scheme", "feasible_capacity_%", "low_load_fct_ms")
	for _, name := range schemes {
		t.AddRow(name, cs.FeasibleCapacity(name)*100, cs.LowLoadFCT(name))
	}
	return t
}

// Fig12Result reproduces Fig. 12: all-short-flow FCT vs utilization,
// with feasible capacity per scheme.
type Fig12Result struct {
	Sweep   *CapacitySweep
	Schemes []string
}

// Fig12 runs the eight-scheme sweep.
func Fig12(seed uint64, sc Scale) *Fig12Result {
	schemes := []string{
		scheme.PCP, scheme.Proactive, scheme.TCP, scheme.Reactive,
		scheme.TCP10, scheme.TCPCache, scheme.JumpStart, scheme.Halfback,
	}
	return &Fig12Result{Sweep: RunCapacitySweep(seed, sc, schemes), Schemes: schemes}
}

// Tables renders the sweep and the extracted feasible capacities.
func (r *Fig12Result) Tables() []*metrics.Table {
	return []*metrics.Table{
		r.Sweep.feasibleTable("Fig.12 feasible capacity (all-short-flow workload)", r.Schemes),
		r.Sweep.sweepTable("Fig.12 FCT vs utilization (short flows only)"),
	}
}

// Fig17Result reproduces Fig. 17: the §5 ablation sweep isolating
// ROPR's design decisions (direction, rate, bandwidth budget).
type Fig17Result struct {
	Sweep   *CapacitySweep
	Schemes []string
}

// Fig17 runs the ablation sweep.
func Fig17(seed uint64, sc Scale) *Fig17Result {
	schemes := []string{
		scheme.Proactive, scheme.TCP, scheme.TCP10,
		scheme.HalfbackBurst, scheme.HalfbackForward,
		scheme.JumpStart, scheme.Halfback,
	}
	return &Fig17Result{Sweep: RunCapacitySweep(seed, sc, schemes), Schemes: schemes}
}

// Tables renders the ablations.
func (r *Fig17Result) Tables() []*metrics.Table {
	return []*metrics.Table{
		r.Sweep.feasibleTable("Fig.17 feasible capacity (ablations)", r.Schemes),
		r.Sweep.sweepTable("Fig.17 FCT vs utilization (startup/recovery ablations)"),
	}
}

// Fig1Result reproduces Fig. 1: the latency-vs-feasible-capacity
// tradeoff scatter that frames the whole paper. Each scheme is one
// point: x = feasible capacity from the Fig. 12 sweep, y = its
// common-case (low-load) FCT.
type Fig1Result struct {
	Sweep   *CapacitySweep
	Schemes []string
}

// Fig1 runs the underlying sweep.
func Fig1(seed uint64, sc Scale) *Fig1Result {
	f := Fig12(seed, sc)
	return &Fig1Result{Sweep: f.Sweep, Schemes: f.Schemes}
}

// Tables renders the scatter.
func (r *Fig1Result) Tables() []*metrics.Table {
	t := metrics.NewTable("Fig.1 Latency vs feasible-capacity tradeoff",
		"scheme", "feasible_capacity_%", "common_case_fct_ms")
	for _, name := range r.Schemes {
		t.AddRow(name, r.Sweep.FeasibleCapacity(name)*100, r.Sweep.LowLoadFCT(name))
	}
	return []*metrics.Table{t}
}
