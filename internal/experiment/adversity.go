package experiment

import (
	"fmt"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
)

// Adversity is the robustness exhibit: every paper scheme crosses every
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

// AdversityFlowBytes matches the wide-area transfer size (§4.2.1).
const AdversityFlowBytes = 100_000

// AdversityTrials is how many seeded universes each preset×scheme cell
// runs at full scale.
const AdversityTrials = 20

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

// AdversityResult is the exhibit's dataset: one trial row per (preset,
// scheme, trial), preset-major, each cell's trials contiguous.
type AdversityResult struct {
	Presets []string
	Schemes []string
	Rows    []fleet.Row
}

// Adversity runs the exhibit: presets × schemes × seeded trials, fanned
// across workers like every other sweep.
func Adversity(seed uint64, sc Scale) *AdversityResult {
	presets := netem.AdversityPresetNames()
	schemes := scheme.Evaluated()
	trials := sc.trials(AdversityTrials)
	res := &AdversityResult{Presets: presets, Schemes: schemes}
	cells := len(presets) * len(schemes)
	res.Rows = sweep(sc, cells*trials, func(i int) string {
		c := i / trials
		return fmt.Sprintf("adversity %s scheme %s trial %d",
			presets[c/len(schemes)], schemes[c%len(schemes)], i%trials)
	}, func(i int) fleet.Row {
		c := i / trials
		u := ptest.PresetUniverse(sim.ChildSeed(seed^0xadefac7, uint64(i)), presets[c/len(schemes)])
		return tortureRow(ptest.RunTorture(u, schemes[c%len(schemes)], AdversityFlowBytes))
	})
	return res
}

// tortureRow keeps what the tables read of one torture run.
func tortureRow(r *ptest.TortureResult) fleet.Row {
	return fleet.Row{
		bit(!r.Completed || !r.SenderDone), bit(!r.ChecksumOK), bit(r.Deliveries != r.NumSegs),
		bit(!r.Drained), bit(!r.ConservationOK), r.Stats.FCT().Seconds() * 1000,
		float64(r.Stats.NormalRetx), float64(r.Stats.DupDataAtReceiver), float64(r.Stats.ChecksumDrops),
	}
}

// Tables renders the exhibit: per (preset, scheme) cell, violation
// counts and the mean cost over its trials.
func (r *AdversityResult) Tables() []*metrics.Table {
	safety := metrics.NewTable("Adversity: safety invariants (violations/trials)",
		"preset", "scheme", "trials", "incomplete", "checksum_bad", "dup_to_app", "undrained", "conservation_bad")
	cost := metrics.NewTable("Adversity: cost of surviving",
		"preset", "scheme", "mean_fct_ms", "retx_per_flow", "dups_seen", "checksum_drops")
	cells := len(r.Presets) * len(r.Schemes)
	trials := len(r.Rows) / cells
	for c := 0; c < cells; c++ {
		var sum [advCols]float64
		for _, row := range r.Rows[c*trials : (c+1)*trials] {
			for k, v := range row {
				sum[k] += v
			}
		}
		preset, name := r.Presets[c/len(r.Schemes)], r.Schemes[c%len(r.Schemes)]
		safety.AddRow(preset, name, trials, int(sum[advIncomplete]), int(sum[advChecksumBad]),
			int(sum[advDupToApp]), int(sum[advUndrained]), int(sum[advConservationBad]))
		n := float64(trials)
		cost.AddRow(preset, name, sum[advFCT]/n, sum[advRetx]/n, sum[advDups]/n, sum[advChecksumDrops]/n)
	}
	return []*metrics.Table{safety, cost}
}
