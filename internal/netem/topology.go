package netem

import (
	"fmt"

	"halfback/internal/sim"
)

// Gbps and Mbps are convenience rate constants (bits per second).
const (
	Mbps int64 = 1_000_000
	Gbps int64 = 1_000_000_000
)

// Edge links (host to router) of the dumbbell and the parking lot: 1 Gbps
// with a generous 1 MB queue, so queueing happens at the bottlenecks.
const (
	edgeBps    = 1 * Gbps
	edgeBuffer = 1 << 20
)

// Dumbbell is the paper's Fig. 4 topology: n sender hosts connected by
// 1 Gbps edges to an ingress router, a single bottleneck link to an egress
// router, and n receiver hosts on 1 Gbps edges. All flows share the
// bottleneck in the forward direction; ACKs return on a symmetric path.
type Dumbbell struct {
	Net        *Network
	Senders    []*Node
	Receivers  []*Node
	RouterIn   *Node
	RouterOut  *Node
	Bottleneck *Link // forward-direction bottleneck (RouterIn -> RouterOut)
	Reverse    *Link // return-direction bottleneck
}

// DumbbellConfig parameterises the Fig. 4 topology.
type DumbbellConfig struct {
	Pairs         int          // number of sender/receiver host pairs
	BottleneckBps int64        // default 15 Mbps (paper)
	RTT           sim.Duration // end-to-end two-way propagation; default 60 ms
	BufferBytes   int          // bottleneck queue capacity; default 115 KB ≈ BDP
}

func (c *DumbbellConfig) applyDefaults() {
	if c.Pairs <= 0 {
		c.Pairs = 1
	}
	if c.BottleneckBps == 0 {
		c.BottleneckBps = 15 * Mbps
	}
	if c.RTT == 0 {
		c.RTT = 60 * sim.Millisecond
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 115 * 1000
	}
}

// BDP returns the bottleneck bandwidth-delay product in bytes for this
// configuration, the paper's default buffer size.
func (c DumbbellConfig) BDP() int {
	c.applyDefaults()
	return int(c.BottleneckBps / 8 * int64(c.RTT) / int64(sim.Second))
}

// Defaulted returns the configuration with every unset field replaced by
// the paper's Fig. 4 default, so callers can read effective parameters
// (e.g. the bottleneck rate) before building the topology.
func (c DumbbellConfig) Defaulted() DumbbellConfig {
	c.applyDefaults()
	return c
}

// NewDumbbell builds the topology on a fresh Network.
func NewDumbbell(sched *sim.Scheduler, rng *sim.Rand, cfg DumbbellConfig) *Dumbbell {
	cfg.applyDefaults()
	net := NewNetwork(sched, rng)
	d := &Dumbbell{Net: net}
	d.RouterIn = net.AddNode("rin")
	d.RouterOut = net.AddNode("rout")

	// Split the propagation budget: the bottleneck carries most of the
	// one-way delay; edges carry a token 1% each so queueing at edges
	// is visible but negligible, matching the testbed's LAN edges.
	oneWay := sim.Duration(cfg.RTT / 2)
	edgeDelay := oneWay / 100
	coreDelay := oneWay - 2*edgeDelay

	d.Bottleneck = net.AddLink(d.RouterIn, d.RouterOut, LinkConfig{
		RateBps: cfg.BottleneckBps, Delay: coreDelay,
		BufferCap: cfg.BufferBytes,
	})
	d.Reverse = net.AddLink(d.RouterOut, d.RouterIn, LinkConfig{
		RateBps: cfg.BottleneckBps, Delay: coreDelay,
		BufferCap: cfg.BufferBytes,
	})

	for i := 0; i < cfg.Pairs; i++ {
		s := net.AddNode(fmt.Sprintf("s%d", i))
		r := net.AddNode(fmt.Sprintf("r%d", i))
		net.Connect(s, d.RouterIn, LinkConfig{RateBps: edgeBps, Delay: edgeDelay, BufferCap: edgeBuffer})
		net.Connect(r, d.RouterOut, LinkConfig{RateBps: edgeBps, Delay: edgeDelay, BufferCap: edgeBuffer})
		d.Senders = append(d.Senders, s)
		d.Receivers = append(d.Receivers, r)
	}
	net.ComputeRoutes()
	return d
}

// Path is a two-host topology with a single bottleneck, used to model one
// wide-area pair (PlanetLab experiments) or one access network (home
// experiments): client — bottleneck — server.
type Path struct {
	Net            *Network
	Client, Server *Node
	Forward, Back  *Link // client->server and server->client bottleneck
	cfg            PathConfig
}

// PathConfig parameterises a single end-to-end path.
type PathConfig struct {
	RateBps     int64        // bottleneck rate
	RTT         sim.Duration // two-way propagation
	BufferBytes int          // bottleneck queue (both directions)
	LossProb    float64      // random loss each direction
	// UpRateBps is the client->server ("upload") direction's rate,
	// which carries a download's ACKs; 0 means RateBps (symmetric).
	// Home access links are asymmetric (e.g. DSL), which matters for
	// ACK-clocked schemes.
	UpRateBps int64
}

// NewPath builds the two-node topology.
func NewPath(sched *sim.Scheduler, rng *sim.Rand, cfg PathConfig) *Path {
	p := new(Path)
	p.Reset(sched, rng, cfg)
	return p
}

// Reset puts the path in the state NewPath(sched, rng, cfg) builds,
// reusing the topology, link rings and packet free list of an earlier
// use; on a zero Path it builds them first, so a fresh path and a
// recycled one are initialised by the same code. Whatever the previous
// use left behind — queued and in-flight packets, counters, Trace and
// Deliver hooks, AQM and adversity settings — is gone, and both links
// draw loss from streams forked from rng exactly as on a new path.
func (p *Path) Reset(sched *sim.Scheduler, rng *sim.Rand, cfg PathConfig) {
	if cfg.RateBps <= 0 {
		panic("netem: path rate must be positive")
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 64 * 1024
	}
	up := cfg.UpRateBps
	if up <= 0 {
		up = cfg.RateBps
	}
	oneWay := cfg.RTT / 2
	forward := LinkConfig{RateBps: up, Delay: oneWay, BufferCap: cfg.BufferBytes, LossProb: cfg.LossProb}
	back := LinkConfig{RateBps: cfg.RateBps, Delay: oneWay, BufferCap: cfg.BufferBytes, LossProb: cfg.LossProb}
	p.cfg = cfg
	if p.Net == nil {
		p.Net = NewNetwork(sched, rng)
		p.Client = p.Net.AddNode("client")
		p.Server = p.Net.AddNode("server")
		p.Forward = p.Net.AddLink(p.Client, p.Server, forward)
		p.Back = p.Net.AddLink(p.Server, p.Client, back)
		p.Net.ComputeRoutes()
		return
	}
	p.Net.reset(sched, rng)
	p.Forward.reset(forward)
	p.Back.reset(back)
}

// Config returns the parameters the path was built with.
func (p *Path) Config() PathConfig { return p.cfg }
