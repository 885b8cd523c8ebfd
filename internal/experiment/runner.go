// Package experiment wires workloads, topologies, schemes and metrics
// into the tables and figures of the paper's evaluation (§4–§5). A swept
// exhibit is a Spec, run by one runner; every exhibit takes a seed and a
// Scale, so the benchmark harness can regenerate reduced-but-same-shape
// versions of each exhibit quickly while the CLI reproduces them at paper
// scale.
package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// Scale shrinks experiments proportionally: Trials scales the number of
// flows/paths/pages, Horizon scales simulated durations. Both must be in
// (0,1]; Full runs the paper-scale version.
type Scale struct {
	Trials  float64
	Horizon float64

	// Workers caps how many simulation universes a sweep runs
	// concurrently: 0 means one per available CPU, 1 forces the serial
	// path. Output is bit-identical for every value — the fleet engine
	// merges results in job order and each universe derives all of its
	// randomness from its own seed.
	Workers int

	// Ctx, when non-nil, cancels cell dispatch: on cancellation every
	// in-flight universe finishes (and is journaled) and undispatched
	// cells surface as job errors of class fleet.ClassCanceled. A nil
	// Ctx never cancels.
	Ctx context.Context

	// Run, when non-nil, attaches the crash-safety layer to every
	// sweep of the exhibit: write-ahead journaling of completed cells
	// (with replay on resume), or a remote-execution hook. Output
	// is bit-identical with or without it — replayed cells decode to
	// exactly the values their universes produced, because every
	// universe derives all randomness from its own seed.
	Run *fleet.Run
}

// Full is the paper-scale configuration.
var Full = Scale{Trials: 1, Horizon: 1}

// Quick is a reduced configuration for benchmarks and smoke tests.
var Quick = Scale{Trials: 0.05, Horizon: 0.2}

func (s Scale) trials(n int) int {
	v := int(float64(n) * s.Trials)
	if v < 1 {
		v = 1
	}
	return v
}

func (s Scale) horizon(d sim.Duration) sim.Duration {
	v := sim.Duration(float64(d) * s.Horizon)
	if v < sim.Second {
		v = sim.Second
	}
	return v
}

// Result is what every experiment produces: one or more renderable
// tables (the repository's "figures" are data series printed as rows).
type Result interface {
	Tables() []*metrics.Table
}

// DumbbellSim is one simulation universe on the Fig. 4 topology: a
// transport.World on a dumbbell, plus the seed's random stream for the
// cell's workload.
type DumbbellSim struct {
	transport.World
	Rng *sim.Rand
	D   *netem.Dumbbell

	nextPair int
}

// NewDumbbellSim builds the world.
func NewDumbbellSim(seed uint64, cfg netem.DumbbellConfig) *DumbbellSim {
	rng := sim.NewRand(seed)
	s := &DumbbellSim{Rng: rng, D: netem.NewDumbbell(sim.NewScheduler(), rng.ForkNamed("net"), cfg)}
	s.Reset(s.D.Net, 0)
	return s
}

// StartFlowAt schedules a flow of the given scheme and size to begin at
// the given virtual time, on the next host pair round-robin. It returns
// the connection for callers that need to observe it.
func (s *DumbbellSim) StartFlowAt(at sim.Time, inst *scheme.Instance, bytes int) *transport.Conn {
	pair := s.nextPair % len(s.D.Senders)
	s.nextPair++
	return s.StartFlowOn(at, inst, bytes, pair, s.Opts, nil)
}

// StartFlowOn is the general launcher: an explicit host pair (Fig. 15
// pins its background flow), the flow's own transport options (long
// background flows model autotuned receive windows far above the 141 KB
// the short-flow schemes are evaluated with, which is what lets them
// bloat large buffers) and an optional completion callback (the
// web-page experiment chains object fetches with it).
func (s *DumbbellSim) StartFlowOn(at sim.Time, inst *scheme.Instance, bytes, pair int,
	opts transport.Options, onDone func(*transport.FlowStats)) *transport.Conn {
	conn := s.Dial(s.D.Senders[pair], s.D.Receivers[pair], bytes, opts, inst.Make, onDone)
	// The label is set once here; callers may relabel (e.g. "long-TCP")
	// before the flow completes and the label sticks.
	conn.Stats.Scheme = inst.Name
	s.StartAt(at, conn)
	return conn
}

// PathSim is a single wide-area pair world (PlanetLab and home-network
// experiments): a transport.World on one client, one server and one
// bottleneck path.
type PathSim struct {
	transport.World
	Path   *netem.Path
	Client *transport.Stack
	Server *transport.Stack

	// OnConn, when non-nil, observes every connection immediately after
	// creation and before Start — the hook point for attaching receiver
	// replacements (ptest attackers) or per-flow instrumentation.
	OnConn func(*transport.Conn)
}

// NewPathSim builds a fresh path world.
func NewPathSim(seed uint64, cfg netem.PathConfig) *PathSim {
	p := new(PathSim)
	p.Reset(seed, cfg)
	return p
}

// Reset puts the universe in the state NewPathSim(seed, cfg) builds,
// reusing the storage of an earlier cell (scheduler pool, link rings,
// packet free list, stacks, endpoint maps, flow slices); on a zero
// PathSim it allocates them first, so fresh and recycled universes are
// initialised by the same code. Nothing of the earlier cell survives:
// pending events, packets in flight, counters, options, flows and every
// hook (OnConn, Net.Trace, wrapped Deliver handlers) are cleared by the
// layers' resets.
func (p *PathSim) Reset(seed uint64, cfg netem.PathConfig) {
	if p.Path == nil {
		p.Sched = sim.NewScheduler()
		p.Path = new(netem.Path)
	}
	p.Sched.Reset()
	p.Path.Reset(p.Sched, sim.NewRand(seed).ForkNamed("net"), cfg)
	p.World.Reset(p.Path.Net, 0)
	p.Client, p.Server = p.Stack(p.Path.Client), p.Stack(p.Path.Server)
	p.OnConn = nil
}

// DropFirstCopies swallows, at the client, the first original copy of
// each listed data segment: targeted loss for walkthroughs like the
// paper's Fig. 3. Retransmissions always pass, unlike
// ptest.World.DropDataSeqs, which swallows the first arrival of any
// kind.
func (p *PathSim) DropFirstCopies(seqs ...int32) {
	if len(seqs) == 0 {
		return
	}
	pending := make(map[int32]bool, len(seqs))
	for _, s := range seqs {
		pending[s] = true
	}
	inner := p.Path.Client.Deliver
	p.Path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
		if pkt.Kind == netem.KindData && !pkt.Retransmit && pending[pkt.Seq] {
			delete(pending, pkt.Seq)
			return
		}
		inner(pkt, now)
	}
}

// pathSims recycles path universes between the cells of the
// one-flow-per-universe exhibits (Figs 5–9): building a world for each
// of 15,600 cells of ~366 events was a third of such a run's wall time
// and nearly all of its allocation. sync.Pool keeps reuse per-P, so
// -workers N and forked distributed workers need no plumbing. A recycled universe is reset to exactly the
// state of a fresh one (TestRecycledPathSimMatchesFresh).
var pathSims = sync.Pool{New: func() any { return new(PathSim) }}

// Columns of the cold-download row (PlanetLab Figs. 5–8, home Fig. 9).
const (
	colFCT        = iota // flow completion time, ms
	colDone              // 1 if the flow completed
	colLossSeen          // 1 if the flow saw loss
	colRTTs              // FCT in units of the path's base RTT
	colNormalRetx        // reactive retransmissions
)

// fetchRow runs one cold 100 KB download on spec in a pooled universe
// reset to (seed, spec). The universe goes back to the pool on normal
// return only: a cell that panics drops it.
func fetchRow(seed uint64, spec workload.PathSpec, name string) fleet.Row {
	ps := pathSims.Get().(*PathSim)
	ps.Reset(seed, spec.ToConfig())
	row := coldRow(ps.FetchOnce(scheme.MustNew(name), PlanetLabFlowBytes, 120*sim.Second), spec.RTT)
	pathSims.Put(ps)
	return row
}

// coldRow is the cold-download row of one flow on a path of base RTT rtt.
func coldRow(st *transport.FlowStats, rtt sim.Duration) fleet.Row {
	return fleet.Row{st.FCT().Seconds() * 1000, bit(st.Completed), bit(st.LossSeen),
		st.RTTCount(rtt), float64(st.NormalRetx)}
}

// bit stores a boolean column.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// FetchOnce runs a single download of the given size from server to
// client (the server is the data sender) and returns its stats. The
// simulation runs until the flow completes or the deadline passes.
func (p *PathSim) FetchOnce(inst *scheme.Instance, bytes int, deadline sim.Duration) *transport.FlowStats {
	conn := p.Dial(p.Path.Server, p.Path.Client, bytes, p.Opts, inst.Make,
		func(*transport.FlowStats) { p.Sched.Stop() })
	conn.Stats.Scheme = inst.Name
	if p.OnConn != nil {
		p.OnConn(conn)
	}
	p.StartAt(p.Sched.Now(), conn)
	p.Run(deadline)
	return conn.Stats
}

// summarizeFlows folds one cell's finished flows labelled schemeName
// ("" for every flow) into what the tables print: the FCT summary in
// milliseconds (its N is the completed count) and the mean number of
// normal retransmissions per flow.
func summarizeFlows(stats []*transport.FlowStats, schemeName string) (fct metrics.Summary, meanRetx float64) {
	var fcts []float64
	var retx int64
	for _, st := range stats {
		if st.Completed && (schemeName == "" || st.Scheme == schemeName) {
			fcts = append(fcts, st.FCT().Seconds()*1000)
			retx += st.NormalRetx
		}
	}
	if len(fcts) > 0 {
		meanRetx = float64(retx) / float64(len(fcts))
	}
	return metrics.Summarize(fcts), meanRetx
}

// Columns of the summary row of a dumbbell sweep cell of short flows
// (capacity, Fig. 10, aqm, multihop).
const (
	colMeanFCT    = iota // mean FCT of the completed flows, ms
	colP99FCT            // their p99 FCT, ms
	colMeanRetx          // their mean normal retransmissions
	colCompleted         // how many completed
	colLaunched          // how many the workload started
	colCompletion        // completed share of every flow in the world
)

// summaryRow folds the finished flows labelled schemeName ("" for every
// flow) of one cell's world into its summary row.
func summaryRow(w *transport.World, schemeName string, launched int) fleet.Row {
	fct, meanRetx := summarizeFlows(w.Finished, schemeName)
	return fleet.Row{fct.Mean, fct.Percentile(99), meanRetx, float64(fct.N), float64(launched), w.CompletionRate()}
}

func meanFCTms(stats []*transport.FlowStats, schemeName string) float64 {
	fct, _ := summarizeFlows(stats, schemeName)
	return fct.Mean
}

// hashString is the FNV-1a hash of s: stable per-cell seed salt.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func fmtMs(d sim.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds()*1000)
}
