package transport

import (
	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// worldMaxEvents is the event backstop Reset arms: a runaway universe
// panics instead of spinning. It is sized for the largest paper-scale
// run; harnesses whose worlds are smaller tighten it after Reset.
const worldMaxEvents = 1_000_000_000

// World is one simulated universe above a topology: the scheduler and
// network it runs on, a transport stack per host, the flows launched in
// it and the stats of those that completed. Every harness (the exhibit
// universes of internal/experiment, the protocol-test worlds of
// internal/ptest) embeds a World beside its topology handle, so flows
// are wired, run, torn down and checked by this one type.
type World struct {
	Sched *sim.Scheduler
	Net   *netem.Network
	// Opts are the options launchers pass to Dial for flows that bring
	// none of their own; Reset sets them to DefaultOptions.
	Opts Options
	// Finished collects the stats of completed flows in completion
	// order.
	Finished []*FlowStats

	stacks   []*Stack // by NodeID; a stack whose Node is nil is detached
	conns    []*Conn
	nextFlow netem.FlowID
}

// Reset binds the world to net (already built on the scheduler that
// drives it) and numbers its flows from firstFlow. Everything an
// earlier use left behind is gone — options, flows, Finished, every
// stack's endpoints, counters and Deliver handler — while the stacks,
// their endpoint maps and the flow slices keep their storage, so a
// recycled world allocates nothing here. The Finished and Conns slices
// handed out before a Reset are overwritten by the next use; the
// FlowStats they pointed to are not.
func (w *World) Reset(net *netem.Network, firstFlow netem.FlowID) {
	for _, s := range w.stacks {
		if s != nil {
			s.Node = nil
		}
	}
	clear(w.conns)
	clear(w.Finished)
	*w = World{
		Sched: net.Scheduler(), Net: net, Opts: DefaultOptions(),
		Finished: w.Finished[:0], stacks: w.stacks, conns: w.conns[:0],
		nextFlow: firstFlow,
	}
	w.Sched.MaxEvents = worldMaxEvents
}

// Stack returns node's transport stack, attaching it (and taking over
// the node's Deliver handler) on first use.
func (w *World) Stack(node *netem.Node) *Stack {
	for int(node.ID) >= len(w.stacks) {
		w.stacks = append(w.stacks, nil)
	}
	s := w.stacks[node.ID]
	if s == nil {
		s = new(Stack)
		w.stacks[node.ID] = s
	}
	if s.Node != node {
		s.Reset(w.Net, node)
	}
	return s
}

// Dial creates (but does not start) the world's next flow: bytes from
// src to dst under opts, run by the controller mk builds. When the
// sender learns of completion the flow's stats join Finished and onDone,
// if non-nil, runs.
func (w *World) Dial(src, dst *netem.Node, bytes int, opts Options,
	mk func() cc.Controller, onDone func(*FlowStats)) *Conn {
	id := w.nextFlow
	w.nextFlow++
	c := NewConn(id, w.Stack(src), w.Stack(dst), bytes, opts, mk, func(c *Conn) {
		w.Finished = append(w.Finished, c.Stats)
		if onDone != nil {
			onDone(c.Stats)
		}
	})
	w.conns = append(w.conns, c)
	return c
}

// StartAt schedules c.Start as an event at virtual time at.
func (w *World) StartAt(at sim.Time, c *Conn) { w.Sched.AtFunc(at, startConn, c) }

func startConn(now sim.Time, arg any) { arg.(*Conn).Start(now) }

// Conns returns every flow dialled, finished or not, in dial order.
func (w *World) Conns() []*Conn { return w.conns }

// Run advances the world by d of virtual time (or until an event stops
// the scheduler), then aborts every unfinished flow; their stats remain
// inspectable through Conns.
func (w *World) Run(d sim.Duration) {
	w.Sched.RunUntil(w.Sched.Now().Add(d))
	w.abortAll()
}

// RunSupervised runs the world under the sim supervision layer: an
// event budget, a virtual-time horizon, and a stall detector keyed (by
// default) to end-to-end packet deliveries — a universe whose endpoints
// stop receiving anything for the stall window is reported as
// sim.ErrStalled instead of looping until the MaxEvents panic. Whatever
// the outcome the world is drained before returning, so it ends in an
// inspectable terminal state even when it failed.
func (w *World) RunSupervised(cfg sim.SuperviseConfig) error {
	if cfg.Progress == nil {
		cfg.Progress = func() int64 { return w.Net.DeliveredTotal }
	}
	err := w.Sched.RunSupervised(cfg)
	w.Drain()
	return err
}

// Drain tears the world down — every unfinished flow is aborted and
// whatever is still scheduled (delayed ACKs, RTO timers, packets in
// flight) runs out — and reports the two end-of-world invariants:
// drained, nothing keeps the scheduler alive; conserved, every packet
// injected or duplicated was delivered or dropped. Calling it again
// only re-reads them.
func (w *World) Drain() (drained, conserved bool) {
	w.abortAll()
	w.Sched.Run()
	n := w.Net
	return w.Sched.Pending() == 0,
		n.InjectedTotal+n.DuplicatedTotal == n.DeliveredTotal+n.DroppedTotal
}

func (w *World) abortAll() {
	for _, c := range w.conns {
		c.Abort()
	}
}

// CompletionRate returns the fraction of dialled flows that finished.
func (w *World) CompletionRate() float64 {
	if len(w.conns) == 0 {
		return 1
	}
	return float64(len(w.Finished)) / float64(len(w.conns))
}
