// Command covcheck compares a freshly measured Go coverage profile
// against the committed per-package baseline and fails when coverage of
// a tracked package drops by more than maxDrop points.
//
//	go test -coverpkg=halfback/internal/cc,halfback/internal/transport \
//	    -coverprofile=cov.out ./internal/...
//	covcheck -baseline bench/COVERAGE.json -profile cov.out
//
// Statement coverage for a pinned test set is deterministic, so a
// points-based gate is reliable in CI (unlike wall time). The baseline
// is regenerated with -write after intentional changes.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"
)

// baselineFile is the committed JSON: statement-coverage percentage per
// tracked import path.
type baselineFile struct {
	Packages map[string]float64 `json:"packages"`
}

// pkgCount accumulates statement totals for one package.
type pkgCount struct {
	total   int
	covered int
}

func (c pkgCount) percent() float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.covered) / float64(c.total)
}

// maxDrop is how many percentage points a tracked package may lose
// against the baseline before the gate fails.
const maxDrop = 2.0

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("covcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("baseline", "bench/COVERAGE.json", "committed coverage baseline JSON")
	profile := fs.String("profile", "", "coverage profile from go test -coverprofile")
	write := fs.Bool("write", false, "rewrite the baseline from the profile instead of checking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	unusable := func(err error) int {
		fmt.Fprintf(stderr, "covcheck: %v\n", err)
		return 2
	}
	if *profile == "" {
		return unusable(errors.New("-profile is required"))
	}
	counts, err := parseProfile(*profile)
	if err != nil {
		return unusable(err)
	}
	if *write {
		if err := writeBaseline(*basePath, counts); err != nil {
			return unusable(err)
		}
		fmt.Fprintf(stdout, "covcheck: wrote %s (%d packages)\n", *basePath, len(counts))
		return 0
	}
	base, err := loadBaseline(*basePath)
	if err != nil {
		return unusable(err)
	}

	failed := false
	for _, pkg := range slices.Sorted(maps.Keys(base.Packages)) {
		want := base.Packages[pkg]
		got, ok := counts[pkg]
		if !ok {
			fmt.Fprintf(stderr, "covcheck: FAIL %s: in baseline but absent from the profile — was it dropped from -coverpkg?\n", pkg)
			failed = true
			continue
		}
		pct := got.percent()
		status := "ok  "
		if pct < want-maxDrop {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(stdout, "%s %-40s %6.1f%% (baseline %5.1f%%, floor %5.1f%%)\n",
			status, pkg, pct, want, want-maxDrop)
	}
	if failed {
		fmt.Fprintln(stderr, "covcheck: coverage regression — add tests, or if the drop is intentional regenerate the baseline with -write and commit it")
		return 1
	}
	fmt.Fprintln(stdout, "covcheck: all tracked packages within the coverage floor")
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// parseProfile folds a cover profile into per-package statement counts.
// Profile lines look like
//
//	halfback/internal/cc/cc.go:57.32,59.2 1 3
//
// where the trailing fields are the statement count of the block and how
// many times it ran. A statement is covered when its block ran at least
// once; in -covermode=set the run count is 0 or 1, in count/atomic it
// may be larger — either way >0 means covered.
//
// When several test binaries share a -coverpkg set, the profile repeats
// each block once per binary, so blocks are deduplicated by position
// (union semantics: covered if any binary ran it) — folding repeats
// directly would average the binaries instead.
func parseProfile(p string) (map[string]pkgCount, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type block struct {
		pkg   string
		stmts int
	}
	blocks := map[string]block{} // keyed by file:pos span
	ran := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "mode:") {
			continue
		}
		colon := strings.LastIndexByte(text, ':')
		if colon < 0 {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", p, line, text)
		}
		fields := strings.Fields(text[colon+1:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", p, line, text)
		}
		stmts, err1 := strconv.Atoi(fields[1])
		runs, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", p, line, text)
		}
		key := text[:colon] + ":" + fields[0]
		blocks[key] = block{pkg: path.Dir(text[:colon]), stmts: stmts}
		if runs > 0 {
			ran[key] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%s: no coverage blocks", p)
	}

	counts := map[string]pkgCount{}
	for key, b := range blocks {
		c := counts[b.pkg]
		c.total += b.stmts
		if ran[key] {
			c.covered += b.stmts
		}
		counts[b.pkg] = c
	}
	return counts, nil
}

func loadBaseline(p string) (baselineFile, error) {
	var b baselineFile
	buf, err := os.ReadFile(p)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		return b, fmt.Errorf("%s: %w", p, err)
	}
	if len(b.Packages) == 0 {
		return b, fmt.Errorf("%s: no packages", p)
	}
	return b, nil
}

// writeBaseline records each package's percentage rounded to one
// decimal, the same resolution the check prints, so the committed file
// stays diff-friendly.
func writeBaseline(p string, counts map[string]pkgCount) error {
	b := baselineFile{Packages: map[string]float64{}}
	for pkg, c := range counts {
		b.Packages[pkg] = float64(int(c.percent()*10+0.5)) / 10
	}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(p, append(buf, '\n'), 0o644)
}
