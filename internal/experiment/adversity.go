package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// adversityFlowBytes matches the wide-area transfer size (§4.2.1).
const adversityFlowBytes = 100_000

// adversityTrials is how many seeded universes each preset×scheme cell
// runs at full scale.
const adversityTrials = 20

// Columns of an adversity trial row: one per safety invariant (1 when
// violated), then what surviving cost.
const (
	advIncomplete      = iota // flow or sender never completed
	advChecksumBad            // end-to-end payload checksum mismatch
	advDupToApp               // app deliveries differ from segments
	advUndrained              // scheduler did not drain
	advConservationBad        // packet conservation violated
	advFCT                    // ms
	advRetx                   // normal retransmissions
	advDups                   // duplicate data segments at the receiver
	advChecksumDrops          // corrupted segments the receiver dropped
	advCols
)

// adversity is the robustness exhibit: every paper scheme crosses every
// published adversity preset (reordering, jitter, duplication +
// corruption, link flaps, and the combined torture profile) and the
// exhibit reports, per cell, whether the safety invariants held —
// completion, end-to-end payload integrity, exactly-once delivery,
// scheduler drain, packet conservation — alongside how hard the path
// fought back (retransmissions, duplicates seen, checksum drops) and
// what the adversity cost in completion time.
//
// This is the paper's §4.2 "runs short flows quickly AND SAFELY" claim
// made mechanical: speed tricks that survive a clean dumbbell are only
// admissible if they also survive a network that reorders, duplicates,
// corrupts and disconnects.
var adversity = &Spec{ID: "adversity", Title: "Safety under network adversity (reorder/dup/corrupt/flap)",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		presets := netem.AdversityPresetNames()
		schemes := scheme.Evaluated()
		trials := sc.trials(adversityTrials)
		return []Axis{{"preset", presets}, {"scheme", schemes}, {"trial", indexLabels(trials)}},
			func(at []int) (fleet.Row, error) {
				i := (at[0]*len(schemes)+at[1])*trials + at[2] // the cell's row-major index
				u := ptest.PresetUniverse(sim.ChildSeed(seed^0xadefac7, uint64(i)), presets[at[0]])
				return tortureRow(ptest.Run(u, schemes[at[1]], adversityFlowBytes, transport.Options{}, "")), nil
			}
	},
	// Per (preset, scheme), the violation counts and the mean cost over
	// its trials.
	Tables: func(g *Grid) []*metrics.Table {
		safety := metrics.NewTable("Adversity: safety invariants (violations/trials)",
			"preset", "scheme", "trials", "incomplete", "checksum_bad", "dup_to_app", "undrained", "conservation_bad")
		cost := metrics.NewTable("Adversity: cost of surviving",
			"preset", "scheme", "mean_fct_ms", "retx_per_flow", "dups_seen", "checksum_drops")
		trials := len(g.Axes[2].Labels)
		var sum [advCols]float64
		g.Each(func(at []int, row fleet.Row) {
			for k, v := range row {
				sum[k] += v
			}
			if at[2] < trials-1 {
				return
			}
			preset, name := g.Axes[0].Labels[at[0]], g.Axes[1].Labels[at[1]]
			safety.AddRow(preset, name, trials, int(sum[advIncomplete]), int(sum[advChecksumBad]),
				int(sum[advDupToApp]), int(sum[advUndrained]), int(sum[advConservationBad]))
			n := float64(trials)
			cost.AddRow(preset, name, sum[advFCT]/n, sum[advRetx]/n, sum[advDups]/n, sum[advChecksumDrops]/n)
			sum = [advCols]float64{}
		})
		return []*metrics.Table{safety, cost}
	},
}

// tortureRow keeps what the tables read of one torture run.
func tortureRow(r *ptest.Result) fleet.Row {
	return fleet.Row{
		bit(!r.Completed || !r.Finished), bit(!r.ChecksumOK), bit(r.Delivered != r.NumSegs),
		bit(!r.Drained), bit(!r.Conserved), r.Stats.FCT().Seconds() * 1000,
		float64(r.Stats.NormalRetx), float64(r.Stats.DupDataAtReceiver), float64(r.Stats.ChecksumDrops),
	}
}
