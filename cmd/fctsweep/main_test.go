package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halfback/internal/fleet"
)

func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A shape that cannot be simulated is a usage error, reported in one
// line before any journal exists — not a grid of FAILED(panicked) rows
// (-flow 0) or a sweep of silently substituted defaults (-rate 0,
// -buffer 0).
func TestShapeValidation(t *testing.T) {
	for _, tc := range []struct {
		flag, value, stderr string
	}{
		{"-flow", "0", "-flow must be positive"},
		{"-flow", "-5", "-flow must be positive"},
		{"-rate", "0", "-rate must be positive"},
		{"-rate", "9300000000000000", "overflows int64 bits/s"},
		{"-rate", "9223372036854", "-rate 9223372036854 Mbit/s is too high"},
		{"-buffer", "0", "-buffer must be positive"},
		{"-rtt", "0s", "-rtt must be positive"},
		{"-horizon", "0s", "-horizon must be positive"},
		{"-horizon", "-1s", "-horizon must be positive"},
		{"-utils", "10,x", `bad utilization "x"`},
		{"-utils", "101", `bad utilization "101"`},
		{"-utils", "NaN", `bad utilization "NaN"`},
		{"-schemes", "Halfback,Nope", `unknown scheme "Nope"`},
		{"-adversity", "nope", "nope"},
		{"-misbehave", "bogus", `bad -misbehave "bogus"`},
		{"-flowdeadline", "-1s", "-flowdeadline must not be negative"},
		{"-maxretx", "-5", "-maxretx must not be negative"},
	} {
		journal := filepath.Join(t.TempDir(), "j")
		code, stdout, stderr := invoke(tc.flag, tc.value, "-journal", journal)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.stderr) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s %s: exit %d stdout %q stderr %q; want exit 2 and one line with %q",
				tc.flag, tc.value, code, stdout, stderr, tc.stderr)
		}
		if _, err := os.Stat(journal); err == nil {
			t.Errorf("%s %s left a journal behind", tc.flag, tc.value)
		}
	}
}

func TestSweepIsWorkerCountIndependentAndResumable(t *testing.T) {
	shape := []string{"-schemes", "Halfback,TCP", "-utils", "30", "-horizon", "2s"}
	code, want, stderr := invoke(append(shape, "-workers", "1")...)
	if code != 0 || !strings.HasPrefix(want, "## FCT sweep: 100000B flows, 15Mbps bottleneck, 60ms RTT, 115000B buffer\n") {
		t.Fatalf("exit %d\n%s%s", code, want, stderr)
	}
	if code, got, stderr := invoke(append(shape, "-workers", "2")...); code != 0 || got != want {
		t.Errorf("-workers 2: exit %d\n%s%s\nwant\n%s", code, got, stderr, want)
	}

	journal := filepath.Join(t.TempDir(), "j")
	if code, got, stderr := invoke(append(shape, "-journal", journal)...); code != 0 || got != want {
		t.Errorf("-journal: exit %d\n%s%s", code, got, stderr)
	}
	// The resume line's shape flags lose to the journal's.
	code, got, stderr := invoke("-resume", journal, "-schemes", "PCP", "-horizon", "9s")
	if code != 0 || got != want || !strings.Contains(stderr, "(2 journaled cells)") {
		t.Errorf("-resume: exit %d\n%s%s", code, got, stderr)
	}
}

// A journal fctsweep wrote, holding one failed cell, replays under
// fctsweep: exactly that cell re-runs, and it now completes.
func TestReproReplaysOneCell(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	j, err := fleet.CreateJournal(journal, fleet.JournalMeta{Tool: "fctsweep", Seed: 1,
		Args: []string{"-schemes", "Halfback,TCP", "-utils", "30", "-horizon", "2s"}})
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"Halfback @30%", "TCP @30%"}
	_, err = fleet.MapOpts(fleet.Options{Workers: 1, Run: &fleet.Run{Journal: j}, Label: func(i int) string { return labels[i] }},
		len(labels), func(i, _ int) (fleet.Row, error) {
			if i == 1 {
				panic("recorded")
			}
			return fleet.Row{}, nil
		})
	if err == nil {
		t.Fatal("the failing cell did not fail")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := invoke("-repro", journal)
	if code != 0 || !strings.Contains(stdout, "sweep 0 cell 1 (TCP @30%)") ||
		!strings.Contains(stdout, "=== recorded failure: panicked: panic: recorded ...\n") ||
		!strings.Contains(stdout, "did not reproduce") || strings.Count(stdout, "=== repro: ") != 1 {
		t.Errorf("exit %d\n%s%s", code, stdout, stderr)
	}
}
