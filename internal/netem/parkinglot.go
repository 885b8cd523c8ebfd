package netem

import (
	"fmt"

	"halfback/internal/sim"
)

// ParkingLot is the classic multi-bottleneck topology the paper leaves
// to future work ("emulation with more complex topologies"): a chain of
// routers R0—R1—R2—R3 where one set of flows traverses the whole chain
// and per-hop cross flows each cross a single link. A long-path flow
// therefore competes at every bottleneck.
//
//	S ── R0 ══ R1 ══ R2 ══ R3 ── D        (══ bottleneck links)
//	     │      │      │
//	    X0↘    X1↘    X2↘  per-hop cross-traffic sources/sinks
type ParkingLot struct {
	Net *Network

	// Src/Dst are the endpoints of the full-chain path.
	Src, Dst *Node
	// Routers are the chain's interior nodes.
	Routers []*Node
	// Bottlenecks are the forward-direction chain links R(i)→R(i+1).
	Bottlenecks []*Link
	// CrossSrc[i] and CrossDst[i] attach to hop i: a flow from
	// CrossSrc[i] to CrossDst[i] crosses exactly bottleneck i.
	CrossSrc, CrossDst []*Node
}

// The chain: three 15 Mbps bottlenecks of 10 ms one-way propagation and
// a 115 KB queue each, between 1 Gbps edges.
const (
	parkingLotHops     = 3
	parkingLotBps      = 15 * Mbps
	parkingLotHopDelay = 10 * sim.Millisecond
	parkingLotBuffer   = 115_000
)

// NewParkingLot builds the chain on a fresh network.
func NewParkingLot(sched *sim.Scheduler, rng *sim.Rand) *ParkingLot {
	net := NewNetwork(sched, rng)
	pl := &ParkingLot{Net: net}

	edge := LinkConfig{RateBps: edgeBps, Delay: 100 * sim.Microsecond, BufferCap: edgeBuffer}
	core := LinkConfig{RateBps: parkingLotBps, Delay: parkingLotHopDelay, BufferCap: parkingLotBuffer}

	for i := 0; i <= parkingLotHops; i++ {
		pl.Routers = append(pl.Routers, net.AddNode(fmt.Sprintf("r%d", i)))
	}
	for i := 0; i < parkingLotHops; i++ {
		fwd, _ := net.Connect(pl.Routers[i], pl.Routers[i+1], core)
		pl.Bottlenecks = append(pl.Bottlenecks, fwd)
	}
	pl.Src = net.AddNode("src")
	pl.Dst = net.AddNode("dst")
	net.Connect(pl.Src, pl.Routers[0], edge)
	net.Connect(pl.Dst, pl.Routers[parkingLotHops], edge)

	for i := 0; i < parkingLotHops; i++ {
		xs := net.AddNode(fmt.Sprintf("xs%d", i))
		xd := net.AddNode(fmt.Sprintf("xd%d", i))
		net.Connect(xs, pl.Routers[i], edge)
		net.Connect(xd, pl.Routers[i+1], edge)
		pl.CrossSrc = append(pl.CrossSrc, xs)
		pl.CrossDst = append(pl.CrossDst, xd)
	}
	net.ComputeRoutes()
	return pl
}
