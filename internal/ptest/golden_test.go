package ptest_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/runs.golden")

// TestRunsGolden pins the hostile-path harness run by run, one line per
// run: every adversity preset and randomized torture universe, the
// blackout suite's mid-flow, dark-from-birth and deadline cases plus two
// healthy worlds, and every attacker under every validation policy.
// Each line holds the flow's stats after teardown, the harness's own
// verdict fields and its error text. The harness tests check
// properties; this file catches any change to what a run does. Rewrite
// it only for a deliberate behaviour change:
//
//	go test ./internal/ptest -run TestRunsGolden -update
func TestRunsGolden(t *testing.T) {
	var b strings.Builder
	line := func(label string, st *transport.FlowStats, verdict string, err error) {
		e := "ok"
		if err != nil {
			e = err.Error()
		}
		fmt.Fprintf(&b, "%s | fct=%v sent=%d nretx=%d pretx=%d rto=%d done=%v aborted=%v reason=%v at=%v | %s | %s\n",
			label, st.FCT(), st.DataPktsSent, st.NormalRetx, st.ProactiveRetx, st.Timeouts,
			st.Completed, st.Aborted, st.AbortReason, st.AbortedAt, verdict, e)
	}
	torture := func(label string, u ptest.Universe, name string) {
		r := ptest.Run(u, name, 100_000, transport.Options{}, "")
		line(label+" "+name, r.Stats, fmt.Sprintf("completed=%v senderDone=%v checksum=%v deliveries=%d/%d drained=%v conserved=%v",
			r.Completed, r.Finished, r.ChecksumOK, r.Delivered, r.NumSegs, r.Drained, r.Conserved), r.TortureErr())
	}
	for _, preset := range netem.AdversityPresetNames() {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, name := range scheme.Evaluated() {
				torture(fmt.Sprintf("torture preset=%s seed=%d", preset, seed), ptest.PresetUniverse(seed, preset), name)
			}
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, name := range scheme.Evaluated() {
			torture(fmt.Sprintf("torture random seed=%d", seed), ptest.RandomUniverse(seed), name)
		}
	}
	// A 200 s outage: flows finish only after minutes of backoff, so the
	// torture horizon shows in these lines.
	outage := ptest.PresetUniverse(5, "none")
	outage.Adv.Flaps = []netem.Flap{{DownAt: sim.Time(100 * sim.Millisecond), UpAt: sim.Time(200 * sim.Second)}}
	for _, name := range scheme.Evaluated() {
		torture("torture long-outage", outage, name)
	}

	budget := transport.Options{MaxRTO: 4 * sim.Second, MaxTimeouts: 8, MaxRetx: 600, MaxSynRetx: 6}
	type blackout struct {
		label string
		u     ptest.Universe
		bytes int
		opts  transport.Options
	}
	blackouts := []blackout{
		{"mid-flow", ptest.OutageUniverse(7, sim.Time(200*sim.Millisecond)), 1_000_000, budget},
		{"dark-from-birth", ptest.OutageUniverse(7, 1), 50_000, transport.Options{MaxSynRetx: 3}},
		{"deadline", ptest.OutageUniverse(7, sim.Time(200*sim.Millisecond)), 1_000_000,
			transport.Options{MaxTimeouts: -1, FlowDeadline: 10 * sim.Second}},
		// Never gives up: the run reaches the horizon still retrying.
		{"retry-forever", ptest.OutageUniverse(7, sim.Time(200*sim.Millisecond)), 1_000_000,
			transport.Options{MaxTimeouts: -1}},
	}
	for seed := uint64(1); seed <= 2; seed++ {
		u := ptest.RandomUniverse(seed)
		u.Horizon = 120 * sim.Second
		blackouts = append(blackouts, blackout{fmt.Sprintf("healthy random seed=%d", seed), u, 60_000, transport.Options{}})
	}
	for _, c := range blackouts {
		for _, name := range scheme.Evaluated() {
			r := ptest.Run(c.u, name, c.bytes, c.opts, "")
			line("blackout "+c.label+" "+name, r.Stats, fmt.Sprintf("aborted=%v reason=%v at=%v drained=%v conserved=%v",
				r.Aborted, r.AbortReason, r.AbortedAt, r.Drained, r.Conserved), r.BlackoutErr())
		}
	}

	for _, attack := range ptest.AttackerNames() {
		for _, name := range scheme.Evaluated() {
			for _, mode := range []transport.AckValidationMode{
				transport.AckValidationClamp, transport.AckValidationAbort, transport.AckValidationOff,
			} {
				r := ptest.Run(ptest.AttackUniverse(1), name, 200_000, transport.Options{AckValidation: mode}, attack)
				line(fmt.Sprintf("attack %s %s %v", attack, name, mode), r.Stats,
					fmt.Sprintf("sent=%d terminated=%v senderDone=%v aborted=%v reason=%v distinct=%d/%d false=%v flagged=%d first=%v drained=%v conserved=%v",
						r.Stats.DataPktsSent, r.Finished, r.SenderDone(), r.Aborted, r.AbortReason, r.Delivered, r.NumSegs,
						r.FalseCompletion(), r.Stats.MisbehaviorTotal(), r.Stats.FirstMisbehavior, r.Drained, r.Conserved), r.AttackErr())
			}
		}
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
