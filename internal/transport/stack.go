package transport

import (
	"fmt"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

// Stack is the per-host transport layer: it owns the node's Deliver
// handler and dispatches packets to connection endpoints by flow ID.
type Stack struct {
	Net  *netem.Network
	Node *netem.Node

	endpoints map[netem.FlowID]packetHandler

	// CorruptDropped counts corrupted control packets (ACK, SYN,
	// SYNACK, probes) discarded on arrival — the header-CRC analogue.
	// Corrupted DATA passes through to the flow's receiver, which
	// verifies the end-to-end payload checksum itself.
	CorruptDropped int64
}

type packetHandler interface {
	handlePacket(pkt *netem.Packet, now sim.Time)
}

// NewStack attaches a transport stack to node.
func NewStack(net *netem.Network, node *netem.Node) *Stack {
	s := new(Stack)
	s.Reset(net, node)
	return s
}

// Reset puts the stack in the state NewStack(net, node) builds — no
// endpoints, zero counters, the node's Deliver handler (re-)attached, so
// a wrapper an earlier user put around it is gone — keeping the endpoint
// map's storage.
func (s *Stack) Reset(net *netem.Network, node *netem.Node) {
	endpoints := s.endpoints
	if endpoints == nil {
		endpoints = make(map[netem.FlowID]packetHandler)
	}
	clear(endpoints)
	*s = Stack{Net: net, Node: node, endpoints: endpoints}
	node.Deliver = s.deliver
}

func (s *Stack) deliver(pkt *netem.Packet, now sim.Time) {
	if pkt.Corrupted && pkt.Kind != netem.KindData {
		s.CorruptDropped++
		return
	}
	ep, ok := s.endpoints[pkt.Flow]
	if !ok {
		// Packets for torn-down flows (e.g. a retransmitted final ACK)
		// are silently dropped, as a real host would RST or ignore.
		return
	}
	ep.handlePacket(pkt, now)
}

func (s *Stack) register(id netem.FlowID, ep packetHandler) {
	if _, dup := s.endpoints[id]; dup {
		panic(fmt.Sprintf("transport: duplicate flow %d on %s", id, s.Node.Name))
	}
	s.endpoints[id] = ep
}

func (s *Stack) unregister(id netem.FlowID) {
	delete(s.endpoints, id)
}

// Sched returns the scheduler driving this stack's network.
func (s *Stack) Sched() *sim.Scheduler { return s.Net.Scheduler() }
