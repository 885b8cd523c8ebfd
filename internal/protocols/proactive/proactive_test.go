package proactive_test

import (
	"testing"

	"halfback/internal/netem"
	"halfback/internal/protocols/proactive"
	"halfback/internal/protocols/tcp"
	"halfback/internal/ptest"
	"halfback/internal/sim"
)

func TestEveryPacketDoubled(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	first, retx, pro := w.CountData()
	st := w.Transfer(100_000, proactive.New(2))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if *first != 69 {
		t.Fatalf("first copies %d", *first)
	}
	if *pro != 69 {
		t.Fatalf("every packet must have a duplicate, got %d", *pro)
	}
	if *retx != 0 {
		t.Fatalf("clean path reactive retx %d", *retx)
	}
	if st.ProactiveRetx != 69 {
		t.Fatalf("stats proactive %d", st.ProactiveRetx)
	}
	if st.DupDataAtReceiver != 69 {
		t.Fatalf("receiver should see 69 duplicates, saw %d", st.DupDataAtReceiver)
	}
}

func TestRedundancyMasksSingleCopyLoss(t *testing.T) {
	// Drop the first copy of several segments including the very last:
	// the duplicates cover everything without a timeout.
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(5, 30, 68)
	st := w.Transfer(100_000, proactive.New(2))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts != 0 {
		t.Fatalf("duplicates should mask first-copy loss, timeouts=%d", st.Timeouts)
	}
}

func TestSlowerThanTCPOnCleanPath(t *testing.T) {
	// The redundancy halves the effective window, so Proactive TCP is
	// slower than vanilla TCP when nothing is lost — matching the
	// paper's Fig. 6 ordering.
	wp := ptest.NewWorld(netem.PathConfig{})
	pr := wp.Transfer(100_000, proactive.New(2))
	wt := ptest.NewWorld(netem.PathConfig{})
	tc := wt.Transfer(100_000, tcp.New(tcp.Config{InitialWindow: 2}))
	if !(pr.FCT() > tc.FCT()) {
		t.Fatalf("Proactive (%v) should trail TCP (%v) on a clean path", pr.FCT(), tc.FCT())
	}
	if pr.FCT() > 3*tc.FCT() {
		t.Fatalf("Proactive (%v) implausibly slow vs TCP (%v)", pr.FCT(), tc.FCT())
	}
}

func TestDuplicatesAreNotRetransmittedReactively(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	st := w.Transfer(50_000, proactive.New(2))
	if st.NormalRetx != 0 {
		t.Fatalf("normal retx on clean path: %d", st.NormalRetx)
	}
	_ = sim.Second
}
