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
// sender genuinely stalls (see ptest.RunAttack).
const misbehaviorFlowBytes = 200_000

// Columns of a misbehavior row: the ptest.AttackResult fields the
// tables, Outcome and Amplification read.
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
	Plan: func(seed uint64, _ Scale) ([]Axis, func([]int) (fleet.Row, error)) {
		attacks := ptest.AttackerNames()
		schemes := scheme.Evaluated()
		modes := misbehaviorModes()
		return []Axis{{"attack", attacks}, {"scheme", schemes}, {"policy", labels(modes, transport.AckValidationMode.String)}},
			func(at []int) (fleet.Row, error) {
				i := (at[0]*len(schemes)+at[1])*len(modes) + at[2] // the cell's row-major index
				return attackRow(ptest.RunAttack(sim.ChildSeed(seed^0xbadacce5, uint64(i)),
					schemes[at[1]], attacks[at[0]], misbehaviorFlowBytes, modes[at[2]])), nil
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
			res := rowAttack(c)
			if mode == transport.AckValidationOff {
				trusting.AddRow(attack, name, res.Outcome(),
					fmt.Sprintf("%.2f", res.Amplification()),
					res.Distinct, res.NumSegs)
			} else {
				hardened.AddRow(attack, name, mode.String(), res.Outcome(),
					fmt.Sprintf("%.2f", res.Amplification()),
					res.DataPktsSent, res.Flagged, res.FirstClass.String())
			}
		})
		return []*metrics.Table{hardened, trusting}
	},
}

// attackRow keeps what the tables read of one attack run.
func attackRow(r *ptest.AttackResult) fleet.Row {
	return fleet.Row{float64(r.NumSegs), float64(r.DataPktsSent), float64(r.Distinct),
		bit(r.SenderDone), bit(r.FalseCompletion), bit(r.Aborted), float64(r.AbortReason),
		float64(r.Flagged), float64(r.FirstClass)}
}

// rowAttack rebuilds those fields of the attack run.
func rowAttack(c fleet.Row) *ptest.AttackResult {
	return &ptest.AttackResult{
		NumSegs: int32(c[mbNumSegs]), DataPktsSent: int64(c[mbDataPktsSent]), Distinct: int32(c[mbDistinct]),
		SenderDone: c[mbSenderDone] != 0, FalseCompletion: c[mbFooled] != 0, Aborted: c[mbAborted] != 0,
		AbortReason: transport.AbortReason(c[mbAbortReason]), Flagged: int64(c[mbFlagged]),
		FirstClass: transport.PeerMisbehavior(c[mbFirstClass]),
	}
}
