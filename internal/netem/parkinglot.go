package netem

import (
	"fmt"

	"halfback/internal/sim"
)

// ParkingLot is the classic multi-bottleneck topology the paper leaves
// to future work ("emulation with more complex topologies"): a chain of
// routers R0—R1—…—Rn where one set of flows traverses the whole chain
// and per-hop cross flows each cross a single link. A long-path flow
// therefore competes at every bottleneck.
//
//	S ── R0 ══ R1 ══ R2 … Rn ── D        (══ bottleneck links)
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

// ParkingLotConfig parameterises the chain.
type ParkingLotConfig struct {
	Hops          int          // number of bottleneck links (≥1); default 3
	BottleneckBps int64        // default 15 Mbps
	HopDelay      sim.Duration // one-way propagation per bottleneck; default 10 ms
	BufferBytes   int          // per-bottleneck queue; default 115 KB
	EdgeBps       int64        // default 1 Gbps
}

func (c *ParkingLotConfig) applyDefaults() {
	if c.Hops <= 0 {
		c.Hops = 3
	}
	if c.BottleneckBps == 0 {
		c.BottleneckBps = 15 * Mbps
	}
	if c.HopDelay == 0 {
		c.HopDelay = 10 * sim.Millisecond
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 115_000
	}
	if c.EdgeBps == 0 {
		c.EdgeBps = 1 * Gbps
	}
}

// Defaulted returns the configuration with defaults applied, so callers
// can read effective parameters.
func (c ParkingLotConfig) Defaulted() ParkingLotConfig {
	c.applyDefaults()
	return c
}

// NewParkingLot builds the chain on a fresh network.
func NewParkingLot(sched *sim.Scheduler, rng *sim.Rand, cfg ParkingLotConfig) *ParkingLot {
	cfg.applyDefaults()
	net := NewNetwork(sched, rng)
	pl := &ParkingLot{Net: net}

	edge := LinkConfig{RateBps: cfg.EdgeBps, Delay: 100 * sim.Microsecond, BufferCap: 1 << 20}
	core := LinkConfig{RateBps: cfg.BottleneckBps, Delay: cfg.HopDelay, BufferCap: cfg.BufferBytes}

	for i := 0; i <= cfg.Hops; i++ {
		pl.Routers = append(pl.Routers, net.AddNode(fmt.Sprintf("r%d", i)))
	}
	for i := 0; i < cfg.Hops; i++ {
		fwd, _ := net.Connect(pl.Routers[i], pl.Routers[i+1], core)
		pl.Bottlenecks = append(pl.Bottlenecks, fwd)
	}
	pl.Src = net.AddNode("src")
	pl.Dst = net.AddNode("dst")
	net.Connect(pl.Src, pl.Routers[0], edge)
	net.Connect(pl.Dst, pl.Routers[cfg.Hops], edge)

	for i := 0; i < cfg.Hops; i++ {
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
