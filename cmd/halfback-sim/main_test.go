package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"halfback/internal/experiment"
)

func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestModeFlagsAndUsageErrors(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string // prefix
		stderr string // substring
	}{
		{[]string{"-list"}, 0, "available exhibits:\n  1 ", ""},
		{[]string{"-list", "-workers", "0"}, 0, "available exhibits:", ""},
		{nil, 2, "available exhibits:", ""},
		{[]string{"-scale", "0.5"}, 2, "available exhibits:", ""},
		{[]string{"-fig", "nope"}, 2, "", `unknown exhibit "nope"`},
		{[]string{"-fig", "3", "-scale", "0"}, 2, "", "-scale must be in (0,1]"},
		{[]string{"-fig", "3", "-scale", "1.5"}, 2, "", "-scale must be in (0,1]"},
		{[]string{"-fig", "3", "-scale", "NaN", "-journal", journal}, 2, "", "-scale must be in (0,1]"},
		{[]string{"-fig", "3", "-workers", "0"}, 2, "", "-workers must be"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.HasPrefix(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%v: exit %d stdout %.40q stderr %q; want exit %d, stdout %q…, stderr …%q…",
				tc.args, code, stdout, stderr, tc.code, tc.stdout, tc.stderr)
		}
	}
	if _, err := os.Stat(journal); err == nil {
		t.Error("a usage error left a journal behind")
	}
}

// The -fig help names every exhibit the registry holds.
func TestFigHelpNamesEveryExhibit(t *testing.T) {
	code, _, stderr := invoke("-h")
	_, help, _ := strings.Cut(stderr, "exhibit to regenerate: ")
	help, _, _ = strings.Cut(help, " or 'all'\n")
	if code != 2 || help == "" {
		t.Fatalf("-h: exit %d, no -fig help in %q", code, stderr)
	}
	ids := strings.Split(help, ",")
	for _, e := range experiment.Registry() {
		if !slices.Contains(ids, e.ID) {
			t.Errorf("-fig help %q does not name exhibit %q", help, e.ID)
		}
	}
}

// Minus its banners, the tool's output is the experiment package's
// render of the exhibit, whatever the worker count.
func TestFig3IsTheExperimentRender(t *testing.T) {
	e, err := experiment.Lookup("3")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, tab := range e.Run(1, experiment.Scale{Trials: 1, Horizon: 1, Workers: 1}).Tables() {
		tab.WriteTo(&want)
		want.WriteByte('\n')
	}
	for _, workers := range []string{"1", "2"} {
		code, stdout, stderr := invoke("-fig", "3", "-workers", workers)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		var got strings.Builder
		banners := 0
		for _, line := range strings.SplitAfter(stdout, "\n") {
			if strings.HasPrefix(line, "=== ") {
				banners++
				continue
			}
			got.WriteString(line)
		}
		// The "done in" banner is followed by one blank line.
		if got.String() != want.String()+"\n" || banners != 2 {
			t.Errorf("-workers %s: %d banners and\n%s\nwant\n%s", workers, banners, got.String(), want.String())
		}
		if !strings.HasPrefix(stdout, "=== exhibit 3: Fig. 3 walkthrough: ROPR recovers a lost packet (seed=1 scale=1 workers="+workers+")\n") {
			t.Errorf("banner: %.120q", stdout)
		}
	}
}

// The blackout exhibit keeps its stalled no-give-up cell as a FAILED
// row. The journal is that cell's only record: stderr names the journal
// once, no file appears beside it, and -repro of the journal re-runs the
// cell to the same stall.
func TestReproReplaysJournaledFailure(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j")
	code, _, stderr := invoke("-fig", "blackout", "-workers", "2", "-journal", journal)
	if code != 0 || strings.Count(stderr, "-repro "+journal+"\n") != 1 {
		t.Fatalf("exit %d, want 0 and one line naming -repro %s:\n%s", code, journal, stderr)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Errorf("the run wrote %d files, want only the journal", len(files))
	}
	code, stdout, stderr := invoke("-repro", journal)
	if code != 1 || !strings.Contains(stdout, "sweep 0 cell 8 (blackout cell=TCP(no-give-up))") ||
		!strings.Contains(stdout, "=== reproduced: stalled: ") {
		t.Errorf("-repro: exit %d, want 1 and the stall reproduced\n%s%s", code, stdout, stderr)
	}
}
