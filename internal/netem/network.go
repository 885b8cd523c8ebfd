package netem

import (
	"fmt"
	"strconv"

	"halfback/internal/sim"
)

// DeliverFunc receives packets addressed to a node. Host protocol stacks
// register one; routers leave it nil and only forward.
type DeliverFunc func(pkt *Packet, now sim.Time)

// Node is a host or router in the network.
type Node struct {
	ID   NodeID
	Name string
	// routes maps destination NodeID (the index) to the egress link, nil
	// where no route exists. Node IDs are dense small integers, so a
	// slice turns the per-hop route lookup — the single hottest map
	// access in the simulator — into an indexed load.
	routes []*Link
	// Deliver handles packets addressed to this node. Nil for pure
	// routers; packets addressed to a node without a handler are a
	// wiring bug and panic.
	Deliver DeliverFunc
}

// route returns the egress link toward dst, or nil if none is known
// (ComputeRoutes not run, or dst unreachable).
func (n *Node) route(dst NodeID) *Link {
	if int(dst) >= len(n.routes) {
		return nil
	}
	return n.routes[dst]
}

// Network owns the nodes and links of one simulated topology and routes
// packets between them using static shortest-path (hop count) routes.
type Network struct {
	sched *sim.Scheduler
	rng   *sim.Rand
	nodes []*Node
	links []*Link

	// pktFree is the packet free list: packets released at final
	// delivery or drop are zeroed and recycled by NewPacket, so the
	// steady-state forwarding path allocates nothing.
	pktFree []*Packet

	// DroppedTotal counts packets lost anywhere in the network.
	DroppedTotal int64
	// InjectedTotal counts packets handed to Inject.
	InjectedTotal int64
	// DeliveredTotal counts packets handed to a destination's Deliver
	// handler. Together with DuplicatedTotal these give the network-wide
	// conservation law: Injected + Duplicated == Delivered + Dropped
	// once the scheduler drains.
	DeliveredTotal int64
	// DuplicatedTotal counts extra copies created by link-level
	// duplication (adversity); zero unless adversity is configured.
	DuplicatedTotal int64

	// Trace, if set, observes every packet's life-cycle: one Send event
	// at injection, one Drop event per loss (any link), one Recv event
	// at final delivery. Tracing is pull-free and adds no events to the
	// scheduler; internal/trace builds flow timelines on top of it.
	Trace func(ev TraceEvent)
}

// TraceEventKind classifies a TraceEvent.
type TraceEventKind uint8

// Trace event kinds.
const (
	TraceSend TraceEventKind = iota
	TraceDrop
	TraceRecv
)

// String names the kind.
func (k TraceEventKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceDrop:
		return "drop"
	case TraceRecv:
		return "recv"
	default:
		return "unknown"
	}
}

// TraceEvent is one observation of a packet.
type TraceEvent struct {
	Kind TraceEventKind
	At   sim.Time
	Pkt  Packet // copied so later mutation cannot corrupt the trace
}

// NewNetwork creates an empty network driven by sched. rng seeds the
// random-loss processes of links; pass a forked stream so topology loss is
// independent of workload randomness.
func NewNetwork(sched *sim.Scheduler, rng *sim.Rand) *Network {
	n := &Network{}
	n.reset(sched, rng)
	return n
}

// reset rebinds the network to sched and rng and clears everything a run
// leaves behind — counters, the tracer, the nodes' Deliver handlers —
// keeping the topology and the packet free list. Links are reset one by
// one afterwards (Link.reset): each re-forks its loss stream from rng, so
// link order is the fork order, as at construction.
func (n *Network) reset(sched *sim.Scheduler, rng *sim.Rand) {
	if rng == nil {
		rng = sim.NewRand(1)
	}
	for _, node := range n.nodes {
		node.Deliver = nil
	}
	*n = Network{sched: sched, rng: rng, nodes: n.nodes, links: n.links, pktFree: n.pktFree}
}

// Scheduler returns the event scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// NewPacket returns a zeroed packet from the network's free list,
// growing the pool on first use. The caller fills it in and hands it to
// Inject; ownership passes to the network, which recycles it at final
// delivery or drop.
func (n *Network) NewPacket() *Packet {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
		return p
	}
	return &Packet{pooled: true}
}

// releasePacket recycles a pool packet after its final delivery or drop.
// Packets built as literals (tests, external injectors) pass through
// untouched — the pool only ever hands out packets it allocated itself.
func (n *Network) releasePacket(p *Packet) {
	if !p.pooled {
		return
	}
	*p = Packet{pooled: true}
	n.pktFree = append(n.pktFree, p)
}

// clonePacket duplicates a packet through the pool, preserving the
// clone's own pooled flag so a clone of a literal (&Packet{}) packet is
// still recycled correctly.
func (n *Network) clonePacket(p *Packet) *Packet {
	cp := n.NewPacket()
	pooled := cp.pooled
	*cp = *p
	cp.pooled = pooled
	return cp
}

// dropPacket is the single accounting point for every packet lost
// anywhere in the network: total count, optional trace (the TraceEvent
// packet copy is only constructed when a tracer is installed), then
// release back to the pool.
func (n *Network) dropPacket(pkt *Packet, now sim.Time) {
	n.DroppedTotal++
	if n.Trace != nil {
		n.Trace(TraceEvent{Kind: TraceDrop, At: now, Pkt: *pkt})
	}
	n.releasePacket(pkt)
}

// AddNode creates a node and returns it.
func (n *Network) AddNode(name string) *Node {
	node := &Node{ID: NodeID(len(n.nodes)), Name: name}
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[int(id)] }

// Links returns all links, for instrumentation sweeps.
func (n *Network) Links() []*Link { return n.links }

// LinkConfig parameterises one direction of a connection.
type LinkConfig struct {
	RateBps   int64
	Delay     sim.Duration
	BufferCap int     // bytes; 0 = unbounded
	LossProb  float64 // independent random loss
}

// AddLink creates a unidirectional link from a to b. Drop accounting and
// tracing are wired through the network itself (see Network.dropPacket).
// The human-readable link name is rendered lazily by Link.Name/String rather
// than formatted here, keeping topology construction off fmt.
func (n *Network) AddLink(a, b *Node, cfg LinkConfig) *Link {
	l := &Link{From: a.ID, To: b.ID, fromName: a.Name, toName: b.Name, net: n}
	l.reset(cfg)
	n.links = append(n.links, l)
	return l
}

// lossForkName renders the per-link loss RNG stream name. The bytes must
// match the historical fmt.Sprintf("loss:%d->%d", from, to) exactly —
// the name seeds the fork — but are built without fmt's reflection.
func lossForkName(from, to NodeID) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, "loss:"...)
	buf = strconv.AppendInt(buf, int64(from), 10)
	buf = append(buf, '-', '>')
	buf = strconv.AppendInt(buf, int64(to), 10)
	return string(buf)
}

// Connect creates a symmetric pair of links between a and b with the same
// configuration in both directions, returning (a→b, b→a).
func (n *Network) Connect(a, b *Node, cfg LinkConfig) (*Link, *Link) {
	return n.AddLink(a, b, cfg), n.AddLink(b, a, cfg)
}

// ComputeRoutes (re)builds every node's static routing table with a BFS
// per node over the link graph. Call once after topology construction.
func (n *Network) ComputeRoutes() {
	adj := make([][]*Link, len(n.nodes))
	for _, l := range n.links {
		adj[l.From] = append(adj[l.From], l)
	}
	// Scratch reused across sources; visited is re-zeroed per BFS.
	type qe struct {
		node  NodeID
		first *Link
	}
	visited := make([]bool, len(n.nodes))
	queue := make([]qe, 0, len(n.nodes))
	for _, src := range n.nodes {
		src.routes = make([]*Link, len(n.nodes))
		// BFS from src; record for each reached node the first link
		// out of src on the shortest path.
		for i := range visited {
			visited[i] = false
		}
		visited[src.ID] = true
		queue = queue[:0]
		for _, l := range adj[src.ID] {
			if !visited[l.To] {
				visited[l.To] = true
				src.routes[l.To] = l
				queue = append(queue, qe{l.To, l})
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, l := range adj[cur.node] {
				if !visited[l.To] {
					visited[l.To] = true
					src.routes[l.To] = cur.first
					queue = append(queue, qe{l.To, cur.first})
				}
			}
		}
	}
}

// Inject sends a packet from its Src node toward its Dst node. The source
// node must have a route; transport stacks call this for every packet they
// emit. Inject reports whether the first hop accepted the packet.
func (n *Network) Inject(pkt *Packet, now sim.Time) bool {
	n.InjectedTotal++
	if n.Trace != nil {
		n.Trace(TraceEvent{Kind: TraceSend, At: now, Pkt: *pkt})
	}
	src := n.nodes[int(pkt.Src)]
	if pkt.Dst == src.ID {
		// Loopback: deliver immediately (used by tests).
		n.deliver(pkt.Dst, pkt, now)
		return true
	}
	link := src.route(pkt.Dst)
	if link == nil {
		panic(fmt.Sprintf("netem: no route from %s to node %d", src.Name, pkt.Dst))
	}
	return link.Send(pkt, now)
}

// deliver hands a packet to its next node: the destination's handler if it
// has arrived, otherwise the next hop's egress link. Final delivery ends
// the packet's life: once the Deliver hook returns, the packet goes back
// to the pool (the layer contract forbids retaining it).
func (n *Network) deliver(at NodeID, pkt *Packet, now sim.Time) {
	node := n.nodes[int(at)]
	if pkt.Dst == at {
		if node.Deliver == nil {
			panic(fmt.Sprintf("netem: packet for %s but node has no Deliver handler", node.Name))
		}
		n.DeliveredTotal++
		if n.Trace != nil {
			n.Trace(TraceEvent{Kind: TraceRecv, At: now, Pkt: *pkt})
		}
		node.Deliver(pkt, now)
		n.releasePacket(pkt)
		return
	}
	link := node.route(pkt.Dst)
	if link == nil {
		panic(fmt.Sprintf("netem: no route from %s to node %d", node.Name, pkt.Dst))
	}
	link.Send(pkt, now)
}
