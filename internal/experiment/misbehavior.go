package experiment

import (
	"fmt"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// misbehaviorFlowBytes exceeds one flow-control window so a starved
// sender genuinely stalls (see ptest.Result.AttackErr).
const misbehaviorFlowBytes = 200_000

// Columns of a misbehavior row: what the tables read of one attack
// run.
const (
	mbNumSegs = iota
	mbDataPktsSent
	mbDistinct
	mbSenderDone
	mbFooled // false completion
	mbAborted
	mbAbortReason
	mbFlagged
	mbFirstClass
)

func misbehaviorModes() []transport.AckValidationMode {
	return []transport.AckValidationMode{
		transport.AckValidationClamp,
		transport.AckValidationAbort,
		transport.AckValidationOff,
	}
}

// misbehavior is the Byzantine-receiver exhibit: every paper scheme
// faces every attacker preset from the adversarial suite, once under
// each ACK-validation policy. The hardened tables show the bounded-
// waste guarantee in action — flows terminate, waste stays within the
// documented amplification bound, and lying peers are flagged and
// named — while the trusting (validation-off) table shows what the
// validator exists to prevent: optimistic ACKing fooling a sender into
// declaring a flow complete that the receiver never held.
//
// This extends the paper's "quickly and safely" claim from hostile
// networks (the adversity exhibit) to hostile endpoints: aggressive
// short-flow schemes are only admissible if a peer that lies about
// receipt cannot turn their aggression into unbounded waste or false
// completion.
//
// Each (attack, scheme, policy) cell is a single deterministic universe,
// so the exhibit needs no trial scaling.
var misbehavior = &Spec{ID: "misbehavior", Title: "Safety under misbehaving endpoints (Byzantine receivers)",
	Plan: func(seed uint64, _ Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		attacks := ptest.AttackerNames()
		schemes := scheme.Evaluated()
		modes := misbehaviorModes()
		return []Axis{{"attack", attacks}, {"scheme", schemes}, {"policy", labels(modes, transport.AckValidationMode.String)}},
			func(at []int) (fleet.Row, error) {
				i := (at[0]*len(schemes)+at[1])*len(modes) + at[2] // the cell's row-major index
				u := ptest.AttackUniverse(sim.ChildSeed(seed^0xbadacce5, uint64(i)))
				return attackRow(ptest.Run(u, schemes[at[1]], misbehaviorFlowBytes,
					transport.Options{AckValidation: modes[at[2]]}, attacks[at[0]])), nil
			}
	},
	Tables: func(g *Grid) []*metrics.Table {
		hardened := metrics.NewTable("Misbehaving endpoints: hardened sender (ACK validation on)",
			"attack", "scheme", "policy", "outcome", "amplification", "pkts_sent", "flagged", "first_class")
		trusting := metrics.NewTable("Misbehaving endpoints: trusting sender (validation off)",
			"attack", "scheme", "outcome", "amplification", "delivered_segs", "total_segs")
		modes := misbehaviorModes()
		g.Each(func(at []int, c fleet.Row) {
			attack, name, mode := g.Axes[0].Labels[at[0]], g.Axes[1].Labels[at[1]], modes[at[2]]
			amp := 0.0
			if c[mbNumSegs] != 0 {
				amp = c[mbDataPktsSent] / c[mbNumSegs]
			}
			if mode == transport.AckValidationOff {
				trusting.AddRow(attack, name, attackOutcome(c), fmt.Sprintf("%.2f", amp),
					int32(c[mbDistinct]), int32(c[mbNumSegs]))
			} else {
				hardened.AddRow(attack, name, mode.String(), attackOutcome(c), fmt.Sprintf("%.2f", amp),
					int64(c[mbDataPktsSent]), int64(c[mbFlagged]), transport.PeerMisbehavior(c[mbFirstClass]).String())
			}
		})
		return []*metrics.Table{hardened, trusting}
	},
}

// attackRow keeps what the tables read of one attack run.
func attackRow(r *ptest.Result) fleet.Row {
	st := r.Stats
	return fleet.Row{float64(r.NumSegs), float64(st.DataPktsSent), float64(r.Delivered),
		bit(r.SenderDone()), bit(r.FalseCompletion()), bit(r.Aborted), float64(r.AbortReason),
		float64(st.MisbehaviorTotal()), float64(st.FirstMisbehavior)}
}

// attackOutcome renders an attack run's terminal state.
func attackOutcome(c fleet.Row) string {
	switch {
	case c[mbFooled] != 0:
		return "FOOLED"
	case c[mbSenderDone] != 0:
		return "completed"
	case c[mbAborted] != 0:
		return "abort:" + transport.AbortReason(c[mbAbortReason]).String()
	default:
		return "hung"
	}
}
