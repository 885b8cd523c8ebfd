// Package ptest provides the miniature world protocol tests run in — a
// transport.World on a single bottleneck path, dialled with a controller
// factory as every other world is, with packet-tap hooks for asserting
// on wire behaviour — and the torture, blackout and adversary harnesses
// built on it.
package ptest

import (
	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// World is a transport.World on a two-host path, both stacks attached.
// Its flows are numbered from 1.
type World struct {
	transport.World
	Path   *netem.Path
	Client *transport.Stack // receiver side
	Server *transport.Stack // sender side
}

// maxEvents is the event backstop of every ptest world, far below the
// paper-scale one transport.World arms: these worlds carry a handful of
// flows on one path, so a run that gets anywhere near it is an event
// storm, and the tighter budget fails it sooner.
const maxEvents = 50_000_000

// newWorld is the one builder of ptest worlds: the path cfg describes,
// its loss streams seeded from seed.
func newWorld(seed uint64, cfg netem.PathConfig) *World {
	w := &World{Path: netem.NewPath(sim.NewScheduler(), sim.NewRand(seed), cfg)}
	w.Reset(w.Path.Net, 1)
	w.Sched.MaxEvents = maxEvents
	w.Client, w.Server = w.Stack(w.Path.Client), w.Stack(w.Path.Server)
	return w
}

// NewWorld builds a path world; zero-value fields of cfg get sane
// defaults (10 Mbps, 100 ms RTT, 1 MB buffer).
func NewWorld(cfg netem.PathConfig) *World {
	if cfg.RateBps == 0 {
		cfg.RateBps = 10 * netem.Mbps
	}
	if cfg.RTT == 0 {
		cfg.RTT = 100 * sim.Millisecond
	}
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = 1 << 20
	}
	return newWorld(1, cfg)
}

// Dial creates (but does not start) a server→client download run by the
// controller mk builds.
func (w *World) Dial(bytes int, opts transport.Options, mk func() cc.Controller) *transport.Conn {
	return w.World.Dial(w.Path.Server, w.Path.Client, bytes, opts, mk, nil)
}

// Transfer runs one download to completion (or the 300 s deadline) and
// returns its stats.
func (w *World) Transfer(bytes int, mk func() cc.Controller) *transport.FlowStats {
	conn := w.Dial(bytes, transport.Options{}, mk)
	conn.Start(w.Sched.Now())
	w.Sched.RunUntil(w.Sched.Now().Add(300 * sim.Second))
	conn.Abort()
	return conn.Stats
}

// TapClient interposes on packets delivered to the client (data
// direction); return false from keep to swallow the packet.
func (w *World) TapClient(keep func(pkt *netem.Packet, now sim.Time) bool) {
	inner := w.Path.Client.Deliver
	w.Path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
		if keep(pkt, now) {
			inner(pkt, now)
		}
	}
}

// TapServer interposes on packets delivered to the server (ACK
// direction).
func (w *World) TapServer(keep func(pkt *netem.Packet, now sim.Time) bool) {
	inner := w.Path.Server.Deliver
	w.Path.Server.Deliver = func(pkt *netem.Packet, now sim.Time) {
		if keep(pkt, now) {
			inner(pkt, now)
		}
	}
}

// DropDataSeqs swallows the FIRST copy of each listed data segment.
func (w *World) DropDataSeqs(seqs ...int32) {
	pending := make(map[int32]bool, len(seqs))
	for _, s := range seqs {
		pending[s] = true
	}
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData && pending[pkt.Seq] {
			delete(pending, pkt.Seq)
			return false
		}
		return true
	})
}

// CountData returns a pointer that tracks data packets reaching the
// client, split by first-copy vs retransmission.
func (w *World) CountData() (first, retx, proactive *int) {
	f, r, p := new(int), new(int), new(int)
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData {
			switch {
			case pkt.Proactive:
				*p++
			case pkt.Retransmit:
				*r++
			default:
				*f++
			}
		}
		return true
	})
	return f, r, p
}
