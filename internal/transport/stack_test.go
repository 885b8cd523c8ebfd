package transport

import (
	"testing"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

type countingHandler struct{ n int }

func (h *countingHandler) handlePacket(*netem.Packet, sim.Time) { h.n++ }

// TestStackReset: a reset stack has no endpoints, zero counters, and owns
// its node's Deliver handler again — a wrapper installed around it by an
// earlier user no longer sees packets.
func TestStackReset(t *testing.T) {
	p := netem.NewPath(sim.NewScheduler(), sim.NewRand(1), netem.PathConfig{RateBps: netem.Mbps})
	s := NewStack(p.Net, p.Client)
	s.register(7, &countingHandler{})
	s.CorruptDropped = 3
	wrapped := 0
	inner := p.Client.Deliver
	p.Client.Deliver = func(pkt *netem.Packet, now sim.Time) { wrapped++; inner(pkt, now) }

	s.Reset(p.Net, p.Client)
	if len(s.endpoints) != 0 || s.CorruptDropped != 0 {
		t.Fatalf("Reset left %d endpoints, CorruptDropped=%d", len(s.endpoints), s.CorruptDropped)
	}
	h := &countingHandler{}
	s.register(7, h) // would panic as a duplicate had flow 7 survived
	p.Net.Inject(&netem.Packet{Kind: netem.KindData, Flow: 7, Src: p.Client.ID, Dst: p.Client.ID}, 0)
	if h.n != 1 || wrapped != 0 {
		t.Fatalf("after Reset: handler saw %d packets, stale wrapper saw %d; want 1 and 0", h.n, wrapped)
	}
}
