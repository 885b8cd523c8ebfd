package main

import (
	"bytes"
	"strings"
	"testing"

	"halfback/internal/experiment"
)

func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// flowtrace's defaults are the Fig. 3 path, so dropping segment 8 of a
// ten-segment Halfback flow prints the walkthrough's packet sequence.
func TestFig3Walkthrough(t *testing.T) {
	code, stdout, stderr := invoke("-scheme", "Halfback", "-bytes", "14600", "-drop", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	e, err := experiment.Lookup("3")
	if err != nil {
		t.Fatal(err)
	}
	// The exhibit's last table is its Halfback sequence, a line a row.
	tabs := e.Run(1, experiment.Scale{Trials: 1, Horizon: 1, Workers: 1}).Tables()
	var seq strings.Builder
	for i, lines := 0, tabs[len(tabs)-1]; i < lines.NumRows(); i++ {
		seq.WriteString(lines.Row(i)[0] + "\n")
	}
	if !strings.Contains(stdout, "\n\n"+seq.String()+"\n") {
		t.Errorf("trace is not the Fig. 3 sequence:\n%s\nwant\n%s", stdout, seq.String())
	}
	for _, want := range []string{
		"flow: Halfback, 14600 bytes (10 segments) over 15Mbps/60ms, buffer 115000B\n",
		"completed=true fct=157.668265ms timeouts=0\n",
		"wire: 15 data sent (5 proactive, 0 reactive), 0 dropped, 15 delivered, 11 acks\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-misbehave", "bogus"}, `flowtrace: bad -misbehave "bogus" (want none|optimist|`},
		{[]string{"-bytes", "0"}, "flowtrace: -bytes must be at least 1\n"},
		{[]string{"-scheme", "Nope"}, `unknown scheme "Nope"`},
		{[]string{"-ackvalidation", "maybe"}, "bad -ackvalidation"},
		{[]string{"-drop", "x"}, `bad -drop entry "x"`},
		{[]string{"-adversity", "nope"}, "flowtrace: "},
		{[]string{"-rate", "0"}, "flowtrace: -rate must be positive\n"},
		{[]string{"-rtt", "-1ms"}, "flowtrace: -rtt must be positive\n"},
		{[]string{"-buffer", "-1"}, "flowtrace: -buffer must be positive\n"},
		{[]string{"-loss", "1.5"}, "flowtrace: -loss must be in [0, 1]\n"},
		{[]string{"-loss", "-0.1"}, "flowtrace: -loss must be in [0, 1]\n"},
		{[]string{"-loss", "NaN"}, "flowtrace: -loss must be in [0, 1]\n"},
		{[]string{"-flowdeadline", "-1s"}, "flowtrace: -flowdeadline must not be negative\n"},
		{[]string{"-maxretx", "-5"}, "flowtrace: -maxretx must not be negative\n"},
		{[]string{"-flowdeadline", "-1s", "-maxretx", "-5"}, "flowtrace: -flowdeadline must not be negative\n"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.stderr) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d stdout %q stderr %q; want exit 2 and one line with %q", tc.args, code, stdout, stderr, tc.stderr)
		}
	}
	// A negative -maxtimeouts is not an error: it retries forever.
	if code, _, stderr := invoke("-maxtimeouts", "-1"); code != 0 {
		t.Errorf("-maxtimeouts -1: exit %d: %s", code, stderr)
	}
}
