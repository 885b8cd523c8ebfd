package ptest

import (
	"fmt"
	"strings"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// Blackout harness: permanent-outage universes for every scheme.
//
// Unlike the torture harness, where the path is hostile but the flow
// must still complete, a blackout universe is unsurvivable by
// construction — both directions of the path die at a chosen instant
// and never recover. The invariant under test is graceful failure:
// with a finite lifecycle budget the flow must reach the terminal
// Aborted state (with the right AbortReason) instead of retrying
// forever, and the world it leaves behind must still be clean — the
// scheduler drains and packet conservation holds.

// BlackoutUniverse is one fully specified doomed world.
type BlackoutUniverse struct {
	Seed uint64
	Path netem.PathConfig
	// At is when both directions go permanently dark. Use 1 (one
	// nanosecond) for a world that is dark from birth — the handshake
	// case — and 0 for no outage at all: a healthy world under the same
	// harness, the control case abort-monotonicity properties compare
	// against.
	At sim.Time
	// Extra is overlaid adversity (reordering, jitter, …) active before
	// and during the outage, for stability-under-adversity properties.
	Extra netem.Adversity
}

// DefaultBlackoutUniverse is the paper's default wide-area path going
// dark at the given instant.
func DefaultBlackoutUniverse(seed uint64, at sim.Time) BlackoutUniverse {
	return BlackoutUniverse{
		Seed: seed,
		Path: netem.PathConfig{
			RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond,
			BufferBytes: 115_000,
		},
		At: at,
	}
}

// BlackoutResult records one doomed run's verdicts.
type BlackoutResult struct {
	Scheme   string
	Universe BlackoutUniverse

	Aborted        bool
	Reason         transport.AbortReason
	AbortedAt      sim.Time
	Drained        bool // scheduler empty after teardown
	ConservationOK bool

	Stats *transport.FlowStats
}

// Err returns nil when the run failed gracefully — terminal abort,
// drained scheduler, conserved packets — else one error naming every
// violated invariant.
func (r *BlackoutResult) Err() error {
	var probs []string
	if !r.Aborted {
		probs = append(probs, "flow never reached the Aborted state")
	}
	if !r.Drained {
		probs = append(probs, "scheduler did not drain after teardown")
	}
	if !r.ConservationOK {
		probs = append(probs, "packet conservation violated")
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("%s seed=%d: %s", r.Scheme, r.Universe.Seed, strings.Join(probs, "; "))
}

// blackoutHorizon bounds one run; the lifecycle budgets callers pass
// must give up well inside it, so reaching the horizon un-aborted is a
// liveness failure of the give-up machinery itself.
const blackoutHorizon = 120 * sim.Second

// RunBlackout drives one flow of schemeName into the outage under the
// given lifecycle options and reports how it died. Every run builds its
// own scheduler, network and scheme instance, so it is safe to fan
// across fleet workers and to fuzz.
func RunBlackout(u BlackoutUniverse, schemeName string, flowBytes int, opts transport.Options) *BlackoutResult {
	w := newWorld(u.Seed, u.Path)
	adv := u.Extra
	adv.BlackoutAt = u.At
	w.Path.Forward.SetAdversity(adv)
	w.Path.Back.SetAdversity(adv)

	conn := w.Dial(flowBytes, opts, scheme.MustNew(schemeName).Make)
	res := &BlackoutResult{Scheme: schemeName, Universe: u, Stats: conn.Stats}

	conn.Start(0)
	w.Sched.RunUntil(sim.Time(blackoutHorizon))
	res.Aborted = conn.Stats.Aborted
	res.Reason = conn.Stats.AbortReason
	res.AbortedAt = conn.Stats.AbortedAt

	res.Drained, res.ConservationOK = w.Drain()
	return res
}
