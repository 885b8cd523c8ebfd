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
	fig3 := experiment.Fig3(1, experiment.Scale{Trials: 1, Horizon: 1, Workers: 1})
	if !strings.Contains(stdout, "\n\n"+fig3.HalfbackSeq+"\n") {
		t.Errorf("trace is not the Fig. 3 sequence:\n%s\nwant\n%s", stdout, fig3.HalfbackSeq)
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
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.stderr) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d stdout %q stderr %q; want exit 2 and one line with %q", tc.args, code, stdout, stderr, tc.stderr)
		}
	}
}
