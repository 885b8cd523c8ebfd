package halfback

import (
	"math"
	"testing"
	"time"
)

func TestFetchEveryScheme(t *testing.T) {
	for _, name := range Schemes() {
		st, err := Fetch(name, 100_000, PathConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Completed {
			t.Fatalf("%s did not complete", name)
		}
		if st.FCT() <= 0 {
			t.Fatalf("%s: FCT %v", name, st.FCT())
		}
	}
}

func TestFetchUnknownScheme(t *testing.T) {
	if _, err := Fetch("nope", 1000, PathConfig{}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestFetchRejectsBadPath(t *testing.T) {
	for _, cfg := range []PathConfig{
		{RateBps: -1}, {RTT: -time.Millisecond}, {BufferBytes: -1},
		{LossProb: 1.5}, {LossProb: -0.1}, {LossProb: math.NaN()},
	} {
		if _, err := Fetch(Halfback, 1000, cfg); err == nil {
			t.Errorf("Fetch accepted %+v", cfg)
		}
		if _, _, err := FetchTrace(Halfback, 1000, cfg); err == nil {
			t.Errorf("FetchTrace accepted %+v", cfg)
		}
	}
	if _, err := Fetch(Halfback, 1000, PathConfig{LossProb: 1}); err != nil {
		t.Errorf("LossProb 1 is a path: %v", err)
	}
}

func TestFetchDeterministicInSeed(t *testing.T) {
	cfg := PathConfig{Seed: 7, LossProb: 0.02}
	a, _ := Fetch(Halfback, 100_000, cfg)
	b, _ := Fetch(Halfback, 100_000, cfg)
	if a.FCT() != b.FCT() || a.NormalRetx != b.NormalRetx {
		t.Fatal("same seed must reproduce the run exactly")
	}
	c, _ := Fetch(Halfback, 100_000, PathConfig{Seed: 8, LossProb: 0.02})
	if a.FCT() == c.FCT() && a.DataPktsSent == c.DataPktsSent {
		t.Fatal("different seeds should explore different loss patterns")
	}
}

func TestFetchRespectsPathParameters(t *testing.T) {
	slow, _ := Fetch(TCP, 100_000, PathConfig{RTT: 200 * time.Millisecond})
	fast, _ := Fetch(TCP, 100_000, PathConfig{RTT: 20 * time.Millisecond})
	if !(fast.FCT() < slow.FCT()) {
		t.Fatal("shorter RTT must finish sooner")
	}
}

func TestHalfbackHeadlineViaFacade(t *testing.T) {
	// The repository's one-line claim, via the public API: on a lossy
	// path, Halfback beats TCP by avoiding timeout stalls.
	cfg := PathConfig{LossProb: 0.01, Seed: 3}
	hb, _ := Fetch(Halfback, 100_000, cfg)
	tc, _ := Fetch(TCP, 100_000, cfg)
	if !(hb.FCT() < tc.FCT()) {
		t.Fatalf("Halfback (%v) should beat TCP (%v)", hb.FCT(), tc.FCT())
	}
}

func TestFetchTraceWalkthrough(t *testing.T) {
	st, tr, err := FetchTrace(Halfback, 14600, PathConfig{DropSeqs: []int32{8}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed || st.Timeouts != 0 {
		t.Fatalf("walkthrough: completed=%v timeouts=%d", st.Completed, st.Timeouts)
	}
	if tr.ProactiveSent == 0 || tr.Sequence == "" {
		t.Fatalf("trace empty: %+v", tr)
	}
	if tr.DataSent != tr.DataDelivered+tr.DataDropped {
		t.Fatalf("trace conservation: %+v", tr)
	}
}

func TestZeroRTTViaFacade(t *testing.T) {
	base, _ := Fetch(Halfback, 100_000, PathConfig{Seed: 2})
	tfo, _ := Fetch(Halfback, 100_000, PathConfig{Seed: 2, ZeroRTT: true})
	saved := base.FCT() - tfo.FCT()
	// §6: connection-setup optimizations are drop-in; 0-RTT saves the
	// handshake round trip (60 ms on the default path).
	if saved < 50*time.Millisecond || saved > 70*time.Millisecond {
		t.Fatalf("0-RTT saved %v, want ≈60ms", saved)
	}
}
