package ptest

import (
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// tortureUniverses is the per-scheme universe count: 64 seeded worlds
// (the acceptance floor) normally, shrunk under the race detector where
// the point is catching races, not statistical coverage.
func tortureUniverses() int {
	if fleet.RaceEnabled {
		return 12
	}
	return 64
}

// TestTortureAllSchemes is the headline robustness gate: every paper
// scheme moves a 1 MB flow through randomized hostile universes and
// every safety invariant holds in every one.
func TestTortureAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("torture sweep is not short")
	}
	const flowBytes = 1_000_000
	schemes := scheme.Evaluated()
	nu := tortureUniverses()
	n := len(schemes) * nu

	results, err := fleet.MapOpts(fleet.Options{Label: func(i int) string {
		return schemes[i/nu]
	}}, n, func(i, _ int) (*Result, error) {
		u := RandomUniverse(sim.ChildSeed(0xbad, uint64(i%nu)))
		r := Run(u, schemes[i/nu], flowBytes, transport.Options{}, "")
		return r, r.TortureErr()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must actually have been hostile: across all universes
	// every fault process fired somewhere.
	var dups, checksumDrops, retx int64
	for _, r := range results {
		dups += r.Stats.DupDataAtReceiver
		checksumDrops += r.Stats.ChecksumDrops
		retx += r.Stats.NormalRetx
	}
	if dups == 0 || checksumDrops == 0 || retx == 0 {
		t.Fatalf("sweep was not adversarial enough: dups=%d checksumDrops=%d retx=%d",
			dups, checksumDrops, retx)
	}
}

// TestTorturePresetAllSchemes runs every scheme through the canned
// "torture" preset (the one the exhibit and CLIs expose) as a cheap,
// deterministic smoke independent of the randomized sweep.
func TestTorturePresetAllSchemes(t *testing.T) {
	for _, name := range scheme.Evaluated() {
		r := Run(PresetUniverse(7, "torture"), name, 200_000, transport.Options{}, "")
		if err := r.TortureErr(); err != nil {
			t.Errorf("preset torture: %v", err)
		}
	}
}

// TestTortureDeterminism: the same universe and scheme yield the same
// trajectory regardless of which fleet worker runs them.
func TestTortureDeterminism(t *testing.T) {
	u := RandomUniverse(99)
	a := Run(u, scheme.Halfback, 300_000, transport.Options{}, "")
	b := Run(u, scheme.Halfback, 300_000, transport.Options{}, "")
	if *a.Stats != *b.Stats {
		t.Fatalf("torture run not deterministic:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestTortureFlapOnly isolates RTO behaviour across outages: no random
// loss, no corruption — just the link going away for 300 ms mid-flow.
func TestTortureFlapOnly(t *testing.T) {
	u := Universe{
		Seed: 5,
		Path: netem.PathConfig{RateBps: 10 * netem.Mbps, RTT: 40 * sim.Millisecond, BufferBytes: 100_000},
		Adv: netem.Adversity{Flaps: []netem.Flap{
			{DownAt: sim.Time(100 * sim.Millisecond), UpAt: sim.Time(400 * sim.Millisecond)},
		}},
		Horizon: tortureHorizon,
	}
	for _, name := range scheme.Evaluated() {
		r := Run(u, name, 500_000, transport.Options{}, "")
		if err := r.TortureErr(); err != nil {
			t.Errorf("flap-only: %v", err)
		}
		if r.Stats.FCT() < 300*sim.Millisecond {
			t.Errorf("flap-only %s: FCT %v implausibly beat the outage", name, r.Stats.FCT())
		}
	}
}
