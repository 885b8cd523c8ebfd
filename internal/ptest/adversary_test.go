package ptest

import (
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// attackFlowBytes exceeds one flow-control window (141 KB) so a sender
// starved of cumulative progress genuinely stalls instead of fitting
// the whole flow into its first window.
const attackFlowBytes = 200_000

// attackSchemes is the scheme set the adversarial suite covers: every
// registered scheme normally, the paper's evaluated eight under the
// race detector where the point is catching races, not coverage.
func attackSchemes() []string {
	if fleet.RaceEnabled {
		return scheme.Evaluated()
	}
	return scheme.AllNames()
}

// TestBoundedWasteAllSchemesAllAttackers is the headline hardening
// gate: every scheme, against every attacker preset, under both
// validation policies, terminates before the horizon, transmits at
// most maxAttackAmplification× the flow plus slack, is never fooled
// into a false completion, and ends in a terminal state the contract
// permits (see ExpectedAttackReasons).
func TestBoundedWasteAllSchemesAllAttackers(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sweep is not short")
	}
	schemes := attackSchemes()
	attacks := AttackerNames()
	modes := []transport.AckValidationMode{
		transport.AckValidationClamp, transport.AckValidationAbort,
	}
	type cell struct {
		scheme, attack string
		mode           transport.AckValidationMode
	}
	var cells []cell
	for _, s := range schemes {
		for _, a := range attacks {
			for _, m := range modes {
				cells = append(cells, cell{s, a, m})
			}
		}
	}

	results, err := fleet.MapOpts(fleet.Options{Label: func(i int) string {
		return cells[i].scheme + "/" + cells[i].attack
	}}, len(cells), func(i, _ int) (*AttackResult, error) {
		c := cells[i]
		r := RunAttack(sim.ChildSeed(0x5afe, uint64(i)), c.scheme, c.attack, attackFlowBytes, c.mode)
		return r, CheckAttack(r)
	})
	if err != nil {
		t.Fatal(err)
	}

	// The sweep must actually have exercised the validator: every lying
	// attacker was flagged somewhere, and under the abort policy every
	// lying attacker produced a peer-misbehavior abort.
	flaggedBy := map[string]int64{}
	abortedBy := map[string]int{}
	for _, r := range results {
		flaggedBy[r.Attack] += r.Flagged
		if r.Mode == transport.AckValidationAbort && r.AbortReason == transport.AbortPeerMisbehavior {
			abortedBy[r.Attack]++
		}
	}
	for _, a := range attacks {
		if a == AttackWithholder {
			if flaggedBy[a] != 0 {
				t.Errorf("withholder flagged %d times; silence is not a lie", flaggedBy[a])
			}
			continue
		}
		if flaggedBy[a] == 0 {
			t.Errorf("attacker %s never flagged by the validator", a)
		}
		if abortedBy[a] != len(schemes) {
			t.Errorf("attacker %s: %d/%d schemes aborted for misbehavior under the abort policy",
				a, abortedBy[a], len(schemes))
		}
	}
}

// TestOptimistFoolsTrustingSender demonstrates the attack the
// validator exists to stop: with AckValidationOff, an optimistic acker
// forces every scheme into a false completion — the sender declares
// the flow done while the receiver holds only a fraction of it.
func TestOptimistFoolsTrustingSender(t *testing.T) {
	for _, name := range scheme.Evaluated() {
		r := RunAttack(11, name, AttackOptimist, attackFlowBytes, transport.AckValidationOff)
		if !r.FalseCompletion {
			t.Errorf("%s: trusting sender was not fooled (done=%v distinct=%d/%d)",
				name, r.SenderDone, r.Distinct, r.NumSegs)
		}
		if r.Flagged != 0 {
			t.Errorf("%s: validator flagged %d ACKs while switched off", name, r.Flagged)
		}
		if r.Distinct >= r.NumSegs {
			t.Errorf("%s: attacker legitimately held the whole flow; demo is vacuous", name)
		}
	}
}

// TestDupFloodCompletesUnderClamp pins the clamp policy's soldiering
// guarantee on the one attacker whose honest ACK stream can still
// carry the flow: the flood is dropped, the flow completes, and the
// receiver genuinely holds every segment.
func TestDupFloodCompletesUnderClamp(t *testing.T) {
	r := RunAttack(7, "Halfback", AttackDupFlood, attackFlowBytes, transport.AckValidationClamp)
	if err := CheckAttack(r); err != nil {
		t.Fatal(err)
	}
	if !r.SenderDone || r.Distinct != r.NumSegs {
		t.Fatalf("flow did not complete honestly: done=%v distinct=%d/%d",
			r.SenderDone, r.Distinct, r.NumSegs)
	}
	if r.Flagged == 0 {
		t.Fatal("flood was never flagged")
	}
}

// TestAttachRejectsUnknownAttacker pins the constructor contract.
func TestAttachRejectsUnknownAttacker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted an unknown attacker name")
		}
	}()
	sched := sim.NewScheduler()
	_ = sched
	RunAttack(1, "Halfback", "no-such-attack", 10_000, transport.AckValidationClamp)
}
