// Package scheme names and instantiates the eight rate-control schemes
// the paper evaluates (§4), plus the §5 ablation variants. A scheme is
// instantiated per simulation because some schemes carry cross-flow
// state (TCP-Cache's path cache) that must be shared within one
// simulated world but never across worlds.
//
// Every scheme is a cc.Controller factory; the transport's generic
// driver (transport.Drive) runs any of them on a connection, so an
// Instance's Make field is always Drive(Controller).
package scheme

import (
	"fmt"
	"sort"

	"halfback/internal/cc"
	"halfback/internal/core"
	"halfback/internal/protocols/fixedwin"
	"halfback/internal/protocols/jumpstart"
	"halfback/internal/protocols/pcp"
	"halfback/internal/protocols/proactive"
	"halfback/internal/protocols/reactive"
	"halfback/internal/protocols/tcp"
	"halfback/internal/transport"
)

// Canonical scheme names, matching the paper's labels.
const (
	TCP             = "TCP"
	TCP10           = "TCP-10"
	TCPCache        = "TCP-Cache"
	Reactive        = "Reactive"
	Proactive       = "Proactive"
	JumpStart       = "JumpStart"
	PCP             = "PCP"
	Halfback        = "Halfback"
	HalfbackForward = "Halfback-Forward"
	HalfbackBurst   = "Halfback-Burst"
	// PacingOnly is an extra ablation: Halfback's pacing phase with
	// ROPR disabled (useful to isolate ROPR's contribution beyond the
	// paper's own ablations).
	PacingOnly = "Pacing-Only"
	// HalfbackIB10 is the §4.2.4 refinement the paper suggests but does
	// not evaluate: a 10-segment initial burst before the Pacing phase,
	// removing Halfback's small-flow handicap against TCP-10/TCP-Cache.
	HalfbackIB10 = "Halfback-IB10"
	// HalfbackTwoThirds explores §5's open question of a reduced
	// proactive budget: two ROPR retransmissions per three ACKs
	// (~33% bandwidth overhead instead of ~50%).
	HalfbackTwoThirds = "Halfback-2of3"
	// HalfbackAdaptive uses §3.1's history-based pacing threshold:
	// remembered path throughput × handshake RTT bounds the aggressive
	// prefix on repeat visits.
	HalfbackAdaptive = "Halfback-Adaptive"
	// FixedWindow is the post-refactor demonstration scheme (DESIGN.md
	// §10): a constant 4-segment window, added with only a controller
	// implementation, this registry entry, and conformance rows.
	FixedWindow = "Fixed-Window"
)

// Instance is one simulation's instantiation of a scheme: a Controller
// factory plus whatever cross-flow state the scheme shares. Make wires
// the controller to a connection through the transport's generic driver.
type Instance struct {
	Name string

	// Controller constructs one flow's congestion controller.
	Controller func() cc.Controller

	// Make adapts Controller for transport.NewConn; it is always
	// transport.Drive(Controller).
	Make func(*transport.Conn) transport.Logic

	// Cache is non-nil for TCP-Cache instances, exposed for tests and
	// cache-effectiveness reporting.
	Cache *tcp.PathCache
}

// instance wires a controller factory into an Instance.
func instance(name string, ctrl func() cc.Controller) *Instance {
	return &Instance{Name: name, Controller: ctrl, Make: transport.Drive(ctrl)}
}

// New instantiates a scheme by name. It returns an error for unknown
// names so experiment configuration typos fail loudly.
func New(name string) (*Instance, error) {
	switch name {
	case TCP:
		return instance(name, tcp.New(tcp.Config{InitialWindow: 2})), nil
	case TCP10:
		return instance(name, tcp.New(tcp.Config{InitialWindow: 10})), nil
	case TCPCache:
		cache := tcp.NewPathCache()
		inst := instance(name, tcp.New(tcp.Config{InitialWindow: 2, Cache: cache}))
		inst.Cache = cache
		return inst, nil
	case Reactive:
		return instance(name, reactive.New(2)), nil
	case Proactive:
		return instance(name, proactive.New(2)), nil
	case JumpStart:
		return instance(name, jumpstart.New()), nil
	case PCP:
		return instance(name, pcp.New()), nil
	case Halfback:
		return instance(name, core.New(core.Config{Order: core.Reverse})), nil
	case HalfbackForward:
		return instance(name, core.New(core.Config{Order: core.Forward})), nil
	case HalfbackBurst:
		return instance(name, core.New(core.Config{Order: core.Burst})), nil
	case PacingOnly:
		return instance(name, core.New(core.Config{DisableROPR: true})), nil
	case HalfbackIB10:
		return instance(name, core.New(core.Config{InitialBurst: 10})), nil
	case HalfbackTwoThirds:
		return instance(name, core.New(core.Config{ProactiveRatio: 2.0 / 3.0})), nil
	case HalfbackAdaptive:
		return instance(name, core.New(core.Config{History: core.NewRateHistory()})), nil
	case FixedWindow:
		return instance(name, fixedwin.New(fixedwin.DefaultWindow)), nil
	default:
		return nil, fmt.Errorf("scheme: unknown scheme %q (known: %v)", name, AllNames())
	}
}

// MustNew is New for statically known names.
func MustNew(name string) *Instance {
	inst, err := New(name)
	if err != nil {
		panic(err)
	}
	return inst
}

// AllNames returns every known scheme name, sorted.
func AllNames() []string {
	names := []string{
		TCP, TCP10, TCPCache, Reactive, Proactive,
		JumpStart, PCP, Halfback, HalfbackForward, HalfbackBurst, PacingOnly,
		HalfbackIB10, HalfbackTwoThirds, HalfbackAdaptive, FixedWindow,
	}
	sort.Strings(names)
	return names
}

// Evaluated returns the eight schemes of the paper's §4 head-to-head, in
// the paper's presentation order.
func Evaluated() []string {
	return []string{TCP, TCP10, TCPCache, JumpStart, PCP, Reactive, Proactive, Halfback}
}
