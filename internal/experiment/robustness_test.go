package experiment

import (
	"testing"
	"testing/quick"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
)

// TestEverySchemeSurvivesHostilePaths is cross-scheme failure injection:
// random loss, shallow buffers, slow links, asymmetric rates. Every
// scheme must either complete or give up cleanly — no wedged
// simulations, no panics — and on paths with ≤10% loss every scheme must
// actually complete a 50 KB transfer within five virtual minutes.
func TestEverySchemeSurvivesHostilePaths(t *testing.T) {
	names := scheme.AllNames()
	f := func(seed uint64, pick uint8, lossPct, bufKB, rttMs uint8) bool {
		name := names[int(pick)%len(names)]
		loss := float64(lossPct%26) / 100
		cfg := netem.PathConfig{
			RateBps:     int64(2+int(seed%20)) * netem.Mbps,
			RTT:         sim.Duration(int(rttMs)%300+5) * sim.Millisecond,
			BufferBytes: (int(bufKB)%128 + 4) * 1024,
			LossProb:    loss,
			UpRateBps:   int64(1+int(seed%5)) * netem.Mbps,
		}
		ps := NewPathSim(seed, cfg)
		st := ps.FetchOnce(scheme.MustNew(name), 50_000, 300*sim.Second)
		if loss <= 0.10 && !st.Completed {
			t.Logf("%s failed on loss=%v cfg=%+v", name, loss, cfg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestHostilePathRegressions replays inputs on which the property above
// once failed; every scheme must complete on each.
func TestHostilePathRegressions(t *testing.T) {
	for _, row := range []struct {
		seed uint64
		cfg  netem.PathConfig
	}{
		// Fixed-Window stalled here for the full 300 s: the retransmitted
		// copy of the cumulative point was lost and its window gate never
		// reopened (fixedwin.OnLoss now retransmits it on every timeout).
		{0x9e4c2a9b5d188760, netem.PathConfig{
			RateBps: 6 * netem.Mbps, UpRateBps: 5 * netem.Mbps, RTT: 190 * sim.Millisecond,
			BufferBytes: 88 * 1024, LossProb: 0.09,
		}},
		// Five lost SYNs made the handshake RTT 31.245 s, and PCP, pacing
		// against it, did not complete in 300 s (the SYNACK now echoes
		// the answered SYN's send time).
		{0xc0444dc3d7248050, netem.PathConfig{
			RateBps: 18 * netem.Mbps, UpRateBps: 2 * netem.Mbps, RTT: 245 * sim.Millisecond,
			BufferBytes: 4 * 1024, LossProb: 0.10,
		}},
	} {
		for _, name := range scheme.AllNames() {
			st := NewPathSim(row.seed, row.cfg).FetchOnce(scheme.MustNew(name), 50_000, 300*sim.Second)
			if !st.Completed {
				t.Errorf("%s did not complete on seed %#x cfg %+v: %+v", name, row.seed, row.cfg, st)
			}
		}
	}
}

// TestConcurrentSchemesShareDumbbell mixes every scheme in one world —
// the kind of heterogeneous deployment §4.3.3 studies — and checks the
// simulation stays sane (all flows complete at low utilization).
func TestConcurrentSchemesShareDumbbell(t *testing.T) {
	s := NewDumbbellSim(77, netem.DumbbellConfig{Pairs: 8})
	names := scheme.AllNames()
	at := sim.Time(0)
	for i := 0; i < 3*len(names); i++ {
		s.StartFlowAt(at, scheme.MustNew(names[i%len(names)]), 100_000)
		at = at.Add(150 * sim.Millisecond)
	}
	s.Run(120 * sim.Second)
	if got := s.CompletionRate(); got != 1 {
		t.Fatalf("completion rate %v in a mixed low-load world", got)
	}
	// Per-flow invariants on the records.
	for _, st := range s.Finished {
		if st.ReceiverDone < st.Established || st.Established < st.Start {
			t.Fatalf("%s: time ordering violated: %+v", st.Scheme, st)
		}
		if st.DataPktsSent < int64(st.NumSegs) {
			t.Fatalf("%s: sent %d packets for %d segments", st.Scheme, st.DataPktsSent, st.NumSegs)
		}
	}
}
