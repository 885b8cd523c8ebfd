package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// profile covers 3 of 4 statements of m/a (75 %) and 1 of 3 of m/b
// (33.3 %). The second test binary repeats a block of m/a it did not
// run: a block counts as covered when any binary ran it.
const profile = `mode: set
m/a/a.go:1.1,2.2 2 1
m/a/a.go:3.1,4.2 1 0
m/a/b.go:1.1,2.2 1 1
m/b/b.go:1.1,2.2 1 1
m/b/b.go:3.1,4.2 2 0
m/a/a.go:1.1,2.2 2 0
`

func TestGate(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	prof := file("cov.out", profile)
	for _, tc := range []struct {
		name     string
		profile  string
		baseline string
		code     int
		stdout   string // substring
		stderr   string // substring
	}{
		{name: "within the floor", profile: prof, baseline: `{"packages": {"m/a": 76, "m/b": 33.3}}`,
			stdout: "ok   m/a                                        75.0% (baseline  76.0%, floor  74.0%)"},
		{name: "a drop of exactly two points", profile: prof, baseline: `{"packages": {"m/a": 77}}`,
			stdout: "all tracked packages within the coverage floor"},
		{name: "a drop beyond two points", profile: prof, baseline: `{"packages": {"m/a": 77.1, "m/b": 30}}`,
			code: 1, stdout: "FAIL m/a", stderr: "coverage regression"},
		{name: "tracked package missing from the profile", profile: prof, baseline: `{"packages": {"m/a": 75, "m/c": 50}}`,
			code: 1, stdout: "ok   m/a", stderr: "FAIL m/c: in baseline but absent from the profile"},
		{name: "no -profile", baseline: `{"packages": {"m/a": 75}}`, code: 2, stderr: "-profile is required"},
		{name: "profile not there", profile: filepath.Join(dir, "nope.out"), baseline: `{"packages": {"m/a": 75}}`,
			code: 2, stderr: "nope.out"},
		{name: "malformed profile line", profile: file("bad.out", "mode: set\nm/a/a.go:1.1,2.2 two 1\n"),
			baseline: `{"packages": {"m/a": 75}}`, code: 2, stderr: "bad.out:2: malformed profile line"},
		{name: "profile without blocks", profile: file("empty.out", "mode: set\n"),
			baseline: `{"packages": {"m/a": 75}}`, code: 2, stderr: "empty.out: no coverage blocks"},
		{name: "malformed baseline", profile: prof, baseline: `{"packages": `, code: 2, stderr: "malformed_baseline.json: "},
		{name: "baseline without packages", profile: prof, baseline: `{}`, code: 2, stderr: "baseline_without_packages.json: no packages"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-baseline", file(strings.ReplaceAll(tc.name, " ", "_")+".json", tc.baseline)}
			if tc.profile != "" {
				args = append(args, "-profile", tc.profile)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("exit %d\nstdout: %s\nstderr: %s\nwant exit %d, stdout …%q…, stderr …%q…",
					code, &stdout, &stderr, tc.code, tc.stdout, tc.stderr)
			}
		})
	}
}

// -write records what the check prints, so a baseline written from a
// profile passes that profile.
func TestWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	prof, base := filepath.Join(dir, "cov.out"), filepath.Join(dir, "COVERAGE.json")
	if err := os.WriteFile(prof, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-profile", prof, "-write"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write: exit %d: %s", code, &stderr)
	}
	got, err := os.ReadFile(base)
	if want := "{\n  \"packages\": {\n    \"m/a\": 75,\n    \"m/b\": 33.3\n  }\n}\n"; err != nil || string(got) != want {
		t.Fatalf("wrote %q (%v), want %q", got, err, want)
	}
	if code := run([]string{"-baseline", base, "-profile", prof}, &stdout, &stderr); code != 0 {
		t.Fatalf("check against the written baseline: exit %d: %s%s", code, &stdout, &stderr)
	}
	if code := run([]string{"-baseline", filepath.Join(dir, "no", "such", "dir.json"), "-profile", prof, "-write"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-write to an unwritable path: exit %d, want 2", code)
	}
}
