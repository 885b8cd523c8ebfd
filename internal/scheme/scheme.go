// Package scheme names and instantiates the eight rate-control schemes
// the paper evaluates (§4), plus the §5 ablation variants. A scheme is
// instantiated per simulation because some schemes carry cross-flow
// state (TCP-Cache's path cache) that must be shared within one
// simulated world but never across worlds.
//
// Every scheme is a cc.Controller factory: Instance.Make is what
// transport.NewConn and World.Dial take, and the connection runs the
// controller it builds.
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
	// FixedWindow is the demonstration scheme of DESIGN.md §10: a
	// constant 4-segment window, added with only a controller
	// implementation, this registry entry, and conformance rows.
	FixedWindow = "Fixed-Window"
)

// Instance is one simulation's instantiation of a scheme: a controller
// factory plus whatever cross-flow state the scheme shares.
type Instance struct {
	Name string

	// Make constructs one flow's congestion controller.
	Make func() cc.Controller

	// Cache is non-nil for TCP-Cache instances, exposed for tests and
	// cache-effectiveness reporting.
	Cache *tcp.PathCache
}

// New instantiates a scheme by name. It returns an error for unknown
// names so experiment configuration typos fail loudly.
func New(name string) (*Instance, error) {
	inst := &Instance{Name: name}
	switch name {
	case TCP:
		inst.Make = tcp.New(tcp.Config{InitialWindow: 2})
	case TCP10:
		inst.Make = tcp.New(tcp.Config{InitialWindow: 10})
	case TCPCache:
		inst.Cache = tcp.NewPathCache()
		inst.Make = tcp.New(tcp.Config{InitialWindow: 2, Cache: inst.Cache})
	case Reactive:
		inst.Make = reactive.New(2)
	case Proactive:
		inst.Make = proactive.New(2)
	case JumpStart:
		inst.Make = jumpstart.New()
	case PCP:
		inst.Make = pcp.New()
	case Halfback:
		inst.Make = core.New(core.Config{Order: core.Reverse})
	case HalfbackForward:
		inst.Make = core.New(core.Config{Order: core.Forward})
	case HalfbackBurst:
		inst.Make = core.New(core.Config{Order: core.Burst})
	case PacingOnly:
		inst.Make = core.New(core.Config{DisableROPR: true})
	case HalfbackIB10:
		inst.Make = core.New(core.Config{InitialBurst: 10})
	case HalfbackTwoThirds:
		inst.Make = core.New(core.Config{ProactiveRatio: 2.0 / 3.0})
	case HalfbackAdaptive:
		inst.Make = core.New(core.Config{History: core.NewRateHistory()})
	case FixedWindow:
		inst.Make = fixedwin.New(fixedwin.DefaultWindow)
	default:
		return nil, fmt.Errorf("scheme: unknown scheme %q (known: %v)", name, AllNames())
	}
	return inst, nil
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
