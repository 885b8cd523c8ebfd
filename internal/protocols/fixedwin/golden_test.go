package fixedwin_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/protocols/fixedwin"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/runs.golden")

// goldenFlowBytes is the flow every pinned run carries: 69 segments, long
// enough for the window to slide many times and for timeouts to fire.
const goldenFlowBytes = 100_000

// TestRunsGolden pins Fixed-Window's observable behaviour, one line per
// run, on every kind of path the repository can build: each netem
// adversity preset, randomized torture universes, and a plain path at
// four loss rates. No exhibit runs Fixed-Window, so the experiment
// goldens cannot see a change to how it is driven; this file can.
// Rewrite it only for a deliberate behaviour change:
//
//	go test ./internal/protocols/fixedwin -run TestRunsGolden -update
func TestRunsGolden(t *testing.T) {
	var b strings.Builder
	line := func(label string, st *transport.FlowStats) {
		fmt.Fprintf(&b, "%-26s fct=%-12v sent=%-4d nretx=%-4d rto=%-2d done=%-5v abort=%v\n",
			label, st.FCT(), st.DataPktsSent, st.NormalRetx, st.Timeouts, st.Completed, st.AbortReason)
	}
	for _, preset := range netem.AdversityPresetNames() {
		for seed := uint64(1); seed <= 5; seed++ {
			r := ptest.Run(ptest.PresetUniverse(seed, preset), scheme.FixedWindow, goldenFlowBytes, transport.Options{}, "")
			line(fmt.Sprintf("preset=%s seed=%d", preset, seed), r.Stats)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := ptest.Run(ptest.RandomUniverse(seed), scheme.FixedWindow, goldenFlowBytes, transport.Options{}, "")
		line(fmt.Sprintf("random seed=%d", seed), r.Stats)
	}
	for _, loss := range []float64{0, 0.01, 0.05, 0.10} {
		w := ptest.NewWorld(netem.PathConfig{LossProb: loss})
		line(fmt.Sprintf("transfer loss=%v", loss), w.Transfer(goldenFlowBytes, fixedwin.New(fixedwin.DefaultWindow)))
	}

	path := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s line %d:\n  golden:  %q\n  current: %q", path, i+1, w[i], g[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(g), len(w))
	}
}
