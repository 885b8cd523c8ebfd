// Package experiment wires workloads, topologies, schemes and metrics
// into one runner per table/figure of the paper's evaluation (§4–§5).
// Every runner takes a seed and a Scale, so the benchmark harness can
// regenerate reduced-but-same-shape versions of each exhibit quickly
// while the CLI reproduces them at paper scale.
package experiment

import (
	"context"
	"fmt"
	"sync"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
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
	// in-flight universe finishes (and is journaled), undispatched
	// cells surface as canceled job errors, and the sweep's panic is
	// recognizable via fleet.Interrupted. A nil Ctx never cancels.
	Ctx context.Context

	// Run, when non-nil, attaches the crash-safety layer to every
	// sweep of the exhibit: write-ahead journaling of completed cells
	// (with replay on resume) and the single-cell repro target. Output
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

// sweep fans n independent universes out across sc.Workers goroutines
// via the fleet engine and returns their results in index order, so
// every sweep renders identically whatever the worker count. A universe
// that panics becomes a labelled job error; the remaining universes
// still run, then sweep panics with the aggregate so a broken cell
// cannot silently produce a truncated exhibit.
func sweep[T any](sc Scale, n int, label func(int) string, fn func(int) T) []T {
	out, err := fleet.MapOpts(sc.fleetOptions(label, fleet.Retry{}), n, func(i, attempt int) (T, error) {
		return fn(i), nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// fleetOptions assembles the fleet engine options every sweep of this
// Scale shares: worker bound, cancellation context, and the run's
// crash-safety state.
func (s Scale) fleetOptions(label func(int) string, r fleet.Retry) fleet.Options {
	return fleet.Options{Ctx: s.Ctx, Workers: s.Workers, Label: label, Retry: r, Run: s.Run}
}

// sweepPartial is sweep for degraded-mode exhibits: universes may fail
// (abort, stall, panic) without sinking the sweep. Failed cells come
// back as their zero value plus a non-nil entry in the returned error
// slice (index-aligned, nil for successes), so the exhibit can render
// them as explicit FAILED(class) rows instead of panicking like sweep.
// Jobs run with a two-attempt fleet.Retry, so a failure marked
// fleet.Retryable gets one re-run before being recorded.
func sweepPartial[T any](sc Scale, n int, label func(int) string, fn func(int) (T, error)) ([]T, []error) {
	out, err := fleet.MapOpts(sc.fleetOptions(label, fleet.Retry{Attempts: 2}), n,
		func(i, attempt int) (T, error) { return fn(i) })
	errs := make([]error, n)
	for _, je := range fleet.JobErrors(err) {
		errs[je.Index] = je
	}
	return out, errs
}

// grid is sweep over a rows×cols cell grid in row-major order — the
// shape of almost every exhibit (schemes × operating points).
func grid[T any](sc Scale, rows, cols int, label func(r, c int) string, fn func(r, c int) T) []T {
	return sweep(sc, rows*cols, func(i int) string {
		return label(i/cols, i%cols)
	}, func(i int) T {
		return fn(i/cols, i%cols)
	})
}

// Result is what every experiment produces: one or more renderable
// tables (the repository's "figures" are data series printed as rows).
type Result interface {
	Tables() []*metrics.Table
}

// maxEventsBackstop aborts runaway simulations; generous enough for the
// largest paper-scale run.
const maxEventsBackstop = 1_000_000_000

// DumbbellSim is one simulation universe on the Fig. 4 topology:
// scheduler, network, per-host transport stacks, flow launching and
// stats collection.
type DumbbellSim struct {
	Sched *sim.Scheduler
	Rng   *sim.Rand
	D     *netem.Dumbbell
	Opts  transport.Options

	stacks   map[netem.NodeID]*transport.Stack
	nextFlow netem.FlowID
	nextPair int

	conns []*transport.Conn
	// Finished collects stats of completed flows in completion order.
	Finished []*transport.FlowStats
}

// NewDumbbellSim builds the world.
func NewDumbbellSim(seed uint64, cfg netem.DumbbellConfig) *DumbbellSim {
	sched := sim.NewScheduler()
	sched.MaxEvents = maxEventsBackstop
	rng := sim.NewRand(seed)
	d := netem.NewDumbbell(sched, rng.ForkNamed("net"), cfg)
	s := &DumbbellSim{
		Sched: sched, Rng: rng, D: d,
		Opts:   transport.DefaultOptions(),
		stacks: make(map[netem.NodeID]*transport.Stack),
	}
	for i := range d.Senders {
		s.stacks[d.Senders[i].ID] = transport.NewStack(d.Net, d.Senders[i])
		s.stacks[d.Receivers[i].ID] = transport.NewStack(d.Net, d.Receivers[i])
	}
	return s
}

// Stack returns the transport stack attached to a node.
func (s *DumbbellSim) Stack(id netem.NodeID) *transport.Stack { return s.stacks[id] }

// StartFlowAt schedules a flow of the given scheme and size to begin at
// the given virtual time, on the next host pair round-robin. It returns
// the connection for callers that need to observe it.
func (s *DumbbellSim) StartFlowAt(at sim.Time, inst *scheme.Instance, bytes int) *transport.Conn {
	pair := s.nextPair % len(s.D.Senders)
	s.nextPair++
	return s.StartFlowOnPair(at, inst, bytes, pair)
}

// StartFlowOnPair is StartFlowAt with an explicit host pair, for
// experiments that pin flows to hosts (Fig. 15's background flow).
func (s *DumbbellSim) StartFlowOnPair(at sim.Time, inst *scheme.Instance, bytes, pair int) *transport.Conn {
	return s.StartFlowOnPairOpts(at, inst, bytes, pair, s.Opts)
}

// StartFlowOnPairOpts additionally overrides the transport options for
// this one flow. Long background flows use it to model modern autotuned
// receive windows (far larger than the 141 KB the short-flow schemes are
// evaluated with), which is what lets them actually bloat large buffers.
func (s *DumbbellSim) StartFlowOnPairOpts(at sim.Time, inst *scheme.Instance, bytes, pair int, opts transport.Options) *transport.Conn {
	return s.StartFlowFull(at, inst, bytes, pair, opts, nil)
}

// StartFlowFull is the fully general flow launcher: explicit pair,
// options override, and an optional per-flow completion callback (the
// web-page experiment chains object fetches with it).
func (s *DumbbellSim) StartFlowFull(at sim.Time, inst *scheme.Instance, bytes, pair int,
	opts transport.Options, onDone func(*transport.FlowStats)) *transport.Conn {
	id := s.nextFlow
	s.nextFlow++
	src := s.stacks[s.D.Senders[pair].ID]
	dst := s.stacks[s.D.Receivers[pair].ID]
	conn := transport.NewConn(id, src, dst, bytes, opts, inst.Make, func(c *transport.Conn) {
		s.Finished = append(s.Finished, c.Stats)
		if onDone != nil {
			onDone(c.Stats)
		}
	})
	// The label is set once here; callers may relabel (e.g. "long-TCP")
	// before the flow completes and the label sticks.
	conn.Stats.Scheme = inst.Name
	s.conns = append(s.conns, conn)
	s.Sched.At(at, func(t sim.Time) { conn.Start(t) })
	return conn
}

// Run executes the simulation until the given virtual time, then aborts
// unfinished flows (their stats remain inspectable via Conns).
func (s *DumbbellSim) Run(until sim.Duration) {
	s.Sched.RunUntil(sim.Time(until))
	for _, c := range s.conns {
		c.Abort()
	}
}

// RunSupervised executes the simulation under the sim supervision
// layer: an event budget, a virtual-time horizon, and a stall detector
// keyed (by default) to end-to-end packet deliveries — a universe
// whose endpoints stop receiving anything for the stall window is
// reported as sim.ErrStalled instead of looping until the MaxEvents
// panic. Whatever the outcome, unfinished flows are aborted and the
// remaining events drained before returning, so the universe ends in
// an inspectable terminal state (conservation checks included) even
// when it failed.
func (s *DumbbellSim) RunSupervised(cfg sim.SuperviseConfig) error {
	if cfg.Progress == nil {
		net := s.D.Net
		cfg.Progress = func() int64 { return net.DeliveredTotal }
	}
	err := s.Sched.RunSupervised(cfg)
	for _, c := range s.conns {
		c.Abort()
	}
	s.Sched.Run()
	return err
}

// Conns returns every connection created, finished or not.
func (s *DumbbellSim) Conns() []*transport.Conn { return s.conns }

// CompletionRate returns the fraction of launched flows that finished.
func (s *DumbbellSim) CompletionRate() float64 {
	if len(s.conns) == 0 {
		return 1
	}
	return float64(len(s.Finished)) / float64(len(s.conns))
}

// PathSim is a single wide-area pair world (PlanetLab and home-network
// experiments): one client, one server, one bottleneck path.
type PathSim struct {
	Sched  *sim.Scheduler
	Path   *netem.Path
	Client *transport.Stack
	Server *transport.Stack
	Opts   transport.Options

	// OnConn, when non-nil, observes every connection immediately after
	// creation and before Start — the hook point for attaching receiver
	// replacements (ptest attackers) or per-flow instrumentation.
	OnConn func(*transport.Conn)

	nextFlow netem.FlowID
}

// NewPathSim builds a fresh path world.
func NewPathSim(seed uint64, cfg netem.PathConfig) *PathSim {
	p := new(PathSim)
	p.Reset(seed, cfg)
	return p
}

// Reset puts the universe in the state NewPathSim(seed, cfg) builds,
// reusing the storage of an earlier cell (scheduler pool, link rings,
// packet free list, endpoint maps); on a zero PathSim it allocates them
// first, so fresh and recycled universes are initialised by the same
// code. Nothing of the earlier cell survives: pending events, packets in
// flight, counters, options and every hook (OnConn, Net.Trace, link
// OnDrop, wrapped Deliver handlers) are cleared by the layers' resets.
func (p *PathSim) Reset(seed uint64, cfg netem.PathConfig) {
	if p.Sched == nil {
		p.Sched = sim.NewScheduler()
		p.Path = new(netem.Path)
		p.Client = new(transport.Stack)
		p.Server = new(transport.Stack)
	}
	p.Sched.Reset()
	p.Sched.MaxEvents = maxEventsBackstop
	p.Path.Reset(p.Sched, sim.NewRand(seed).ForkNamed("net"), cfg)
	p.Client.Reset(p.Path.Net, p.Path.Client)
	p.Server.Reset(p.Path.Net, p.Path.Server)
	*p = PathSim{
		Sched: p.Sched, Path: p.Path, Client: p.Client, Server: p.Server,
		Opts: transport.DefaultOptions(),
	}
}

// pathSims recycles path universes between the cells of the
// one-flow-per-universe exhibits (Figs 5–9): building a world for each
// of 15,600 cells of ~366 events was a third of such a run's wall time
// and nearly all of its allocation. sync.Pool keeps reuse per-P, so
// -workers N and forked distributed workers need no plumbing. A recycled universe is reset to exactly the
// state of a fresh one (TestRecycledPathSimMatchesFresh).
var pathSims = sync.Pool{New: func() any { return new(PathSim) }}

// fetchCold runs one cold download on a pooled universe reset to (seed,
// cfg). The universe goes back to the pool on normal return only: a cell
// that panics drops it.
func fetchCold(seed uint64, cfg netem.PathConfig, inst *scheme.Instance, bytes int, deadline sim.Duration) *transport.FlowStats {
	ps := pathSims.Get().(*PathSim)
	ps.Reset(seed, cfg)
	st := ps.FetchOnce(inst, bytes, deadline)
	pathSims.Put(ps)
	return st
}

// FetchOnce runs a single download of the given size from server to
// client (the server is the data sender) and returns its stats. The
// simulation runs until the flow completes or the deadline passes.
func (p *PathSim) FetchOnce(inst *scheme.Instance, bytes int, deadline sim.Duration) *transport.FlowStats {
	id := p.nextFlow
	p.nextFlow++
	conn := transport.NewConn(id, p.Server, p.Client, bytes, p.Opts, inst.Make, func(c *transport.Conn) {
		p.Sched.Stop()
	})
	conn.Stats.Scheme = inst.Name
	if p.OnConn != nil {
		p.OnConn(conn)
	}
	p.Sched.At(p.Sched.Now(), func(t sim.Time) { conn.Start(t) })
	p.Sched.RunUntil(p.Sched.Now().Add(deadline))
	conn.Abort()
	return conn.Stats
}

// fctsMs extracts completed-flow FCTs in milliseconds for one scheme.
func fctsMs(stats []*transport.FlowStats, schemeName string) []float64 {
	var out []float64
	for _, st := range stats {
		if st.Completed && (schemeName == "" || st.Scheme == schemeName) {
			out = append(out, st.FCT().Seconds()*1000)
		}
	}
	return out
}

func fmtMs(d sim.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds()*1000)
}
