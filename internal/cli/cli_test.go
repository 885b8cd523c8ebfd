package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/sim"
)

// workerEnv marks a re-execution of this test binary as the fake tool:
// that is how -distributed forks "its own binary" under go test.
const workerEnv = "HALFBACK_CLI_TEST_TOOL"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		h := newFake()
		os.Exit(Main("fake", h.newShape, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// fake is the test tool's state outside any one shape: the switch that
// makes its cell fail, a hook run at the start of every cell, and a
// record of what the last program saw.
type fake struct {
	failing atomic.Bool
	onCell  func(env *Env, sweep, cell int)

	mu       sync.Mutex
	ran      [][2]int // (sweep as the program counts, cell) of every executed cell
	exec     Exec     // the Exec the last program was handed
	meta     []string // its shape, as Meta renders it
	progress []fleet.SweepProgress
}

func newFake() *fake { return &fake{} }

func (f *fake) newShape() Shape { return &fakeShape{f: f} }

// fakeShape is a tool of -sweeps sweeps of -cells cells whose values
// derive from -seed; cell -fail of the last sweep fails while the
// fake's switch is on.
type fakeShape struct {
	f      *fake
	cells  int
	sweeps int
	seed   uint64
	fail   int
	list   bool
}

func (s *fakeShape) Bind(fs *flag.FlagSet) {
	fs.IntVar(&s.cells, "cells", 6, "cells per sweep")
	fs.IntVar(&s.sweeps, "sweeps", 2, "sweeps")
	fs.Uint64Var(&s.seed, "seed", 1, "seed")
	fs.IntVar(&s.fail, "fail", -1, "failing cell of the last sweep")
	fs.BoolVar(&s.list, "list", false, "print a listing and exit")
}

func (s *fakeShape) Meta() fleet.JournalMeta {
	return fleet.JournalMeta{Seed: s.seed, Args: []string{
		"-cells", strconv.Itoa(s.cells), "-sweeps", strconv.Itoa(s.sweeps),
		"-seed", strconv.FormatUint(s.seed, 10), "-fail", strconv.Itoa(s.fail),
	}}
}

func (s *fakeShape) Check() error {
	if s.list {
		return &Exit{Code: 0, Text: "listing\n"}
	}
	if s.cells < 1 {
		return errors.New("-cells must be ≥ 1")
	}
	return nil
}

func (s *fakeShape) Run(env *Env) (failed bool) {
	f := s.f
	f.mu.Lock()
	f.exec, f.meta = *env.Exec, s.Meta().Args
	f.mu.Unlock()
	if env.Out != nil {
		fmt.Fprintf(env.Out, "=== fake %s workers=%d\n", strings.Join(s.Meta().Args, " "), env.Exec.Workers)
	}
	for sw := 0; sw < s.sweeps; sw++ {
		out, err := fleet.MapOpts(fleet.Options{
			Ctx: env.Ctx, Workers: env.Workers, Run: env.Run,
			Label: func(i int) string { return fmt.Sprintf("sweep %d cell %d", sw, i) },
		}, s.cells, func(i, _ int) (uint64, error) {
			f.mu.Lock()
			f.ran = append(f.ran, [2]int{sw, i})
			f.mu.Unlock()
			if f.onCell != nil {
				f.onCell(env, sw, i)
			}
			if f.failing.Load() && sw == s.sweeps-1 && i == s.fail {
				return 0, errors.New("boom")
			}
			return sim.ChildSeed(s.seed, uint64(sw*1000+i)), nil
		})
		if j := env.Run.Journal; j != nil {
			f.mu.Lock()
			f.progress = j.Progress()
			f.mu.Unlock()
		}
		switch {
		case env.Ctx.Err() != nil:
			if env.Out != nil {
				fmt.Fprintf(env.Out, "INTERRUPTED — %s\n", env.ResumeHint())
			}
			return failed
		case env.Out == nil:
		default:
			if err != nil {
				failed = true
				env.Logf("sweep %d: %v", sw, err)
			}
			fmt.Fprintf(env.Out, "sweep %d: %x\n", sw, out)
		}
	}
	return failed
}

// lockedBuffer is a stderr the harness's goroutines (signal handler,
// dist logging) may write while the run goroutine does.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

type result struct {
	code           int
	stdout, stderr string
}

// interruptAt makes the given cell raise the interrupt and stay in
// flight until the drain has started. It returns the signal source to
// invoke with and the count of its unsubscriptions.
func (f *fake) interruptAt(sweep, cell int) (notify func(chan<- os.Signal) func(), stopped *atomic.Int32) {
	var sig chan<- os.Signal
	stopped = new(atomic.Int32)
	f.onCell = func(env *Env, s, c int) {
		if s == sweep && c == cell {
			sig <- os.Interrupt
			<-env.Ctx.Done()
		}
	}
	return func(ch chan<- os.Signal) func() {
		sig = ch
		return func() { stopped.Add(1) }
	}, stopped
}

// invoke runs one in-process invocation of the fake tool.
func (f *fake) invoke(notify func(chan<- os.Signal) func(), args ...string) result {
	var stdout bytes.Buffer
	var stderr lockedBuffer
	h := &harness{name: "fake", newShape: f.newShape, stdout: &stdout, stderr: &stderr, notify: notify}
	if notify == nil {
		h.notify = func(chan<- os.Signal) func() { return func() {} }
	}
	code := h.run(args)
	return result{code, stdout.String(), stderr.String()}
}

// tables drops the "=== " banner, which names the worker count.
func tables(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "=== ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "existing")
	if err := os.WriteFile(existing, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign")
	j, err := fleet.CreateJournal(foreign, fleet.JournalMeta{Tool: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := func(name string) string { return filepath.Join(dir, name) }

	for _, tc := range []struct {
		name    string
		args    []string
		failing bool
		code    int
		stderr  string // substring
		noFile  string // must not exist afterwards
	}{
		{name: "clean", args: []string{"-workers", "2"}, code: 0},
		{name: "failed cell", args: []string{"-fail", "2"}, failing: true, code: 1, stderr: "boom"},
		{name: "bad flag", args: []string{"-nope"}, code: 2, stderr: "not defined"},
		{name: "help", args: []string{"-h"}, code: 2, stderr: "-cluster-key"},
		{name: "journal and resume", args: []string{"-journal", fresh("a"), "-resume", existing}, code: 2, stderr: "mutually exclusive", noFile: fresh("a")},
		{name: "journal exists", args: []string{"-journal", existing}, code: 2, stderr: "already exists"},
		{name: "resume missing", args: []string{"-resume", fresh("missing")}, code: 2},
		{name: "resume foreign", args: []string{"-resume", foreign}, code: 2, stderr: `written by "other", not fake`},
		{name: "check", args: []string{"-cells", "0", "-journal", fresh("b")}, code: 2, stderr: "-cells must be", noFile: fresh("b")},
		{name: "check answers", args: []string{"-list", "-journal", fresh("c")}, code: 0, noFile: fresh("c")},
		{name: "workers", args: []string{"-workers", "0", "-journal", fresh("d")}, code: 2, stderr: "-workers must be", noFile: fresh("d")},
		{name: "distributed without journal", args: []string{"-distributed", "2"}, code: 2, stderr: "require -journal or -resume"},
		{name: "remote without journal", args: []string{"-workers-remote", "127.0.0.1:1"}, code: 2, stderr: "require -journal or -resume"},
		{name: "distributed and remote", args: []string{"-distributed", "2", "-workers-remote", "127.0.0.1:1", "-journal", fresh("e")}, code: 2, stderr: "mutually exclusive", noFile: fresh("e")},
		{name: "distributed negative", args: []string{"-distributed", "-1", "-journal", fresh("f")}, code: 2, stderr: "must be ≥ 1", noFile: fresh("f")},
		{name: "remote names no address", args: []string{"-workers-remote", " , ", "-journal", fresh("g")}, code: 1, stderr: "no worker address"},
		{name: "remote unreachable", args: []string{"-workers-remote", "127.0.0.1:1", "-journal", fresh("i")}, code: 1, stderr: "none of 1 workers reachable"},
		{name: "worker with journal", args: []string{"-serve-worker", "127.0.0.1:0", "-journal", fresh("h")}, code: 2, stderr: "-serve-worker excludes", noFile: fresh("h")},
		{name: "worker with distributed", args: []string{"-serve-worker", "127.0.0.1:0", "-distributed", "2"}, code: 2, stderr: "-serve-worker excludes"},
		{name: "worker profile unwritable", args: []string{"-serve-worker", "127.0.0.1:0", "-cpuprofile", fresh("no/such/dir/p")}, code: 1, stderr: "-cpuprofile"},
		{name: "profile unwritable", args: []string{"-cpuprofile", fresh("no/such/dir/p")}, code: 1, stderr: "-cpuprofile"},
		{name: "mem profile unwritable", args: []string{"-memprofile", fresh("no/such/dir/m")}, code: 0, stderr: "-memprofile"},
		{name: "repro missing", args: []string{"-repro", fresh("missing")}, code: 2},
		{name: "repro not a journal", args: []string{"-repro", existing}, code: 2, stderr: "journal corrupt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake()
			f.failing.Store(tc.failing)
			r := f.invoke(nil, tc.args...)
			if r.code != tc.code {
				t.Errorf("exit %d, want %d\nstderr: %s", r.code, tc.code, r.stderr)
			}
			if !strings.Contains(r.stderr, tc.stderr) {
				t.Errorf("stderr %q lacks %q", r.stderr, tc.stderr)
			}
			if tc.code == 2 && tc.name != "help" && tc.name != "bad flag" && strings.Count(r.stderr, "\n") != 1 {
				t.Errorf("usage error is not one line: %q", r.stderr)
			}
			if tc.noFile != "" {
				if _, err := os.Stat(tc.noFile); err == nil {
					t.Errorf("%s was left behind", tc.noFile)
				}
			}
		})
	}

	t.Run("check answers on stdout", func(t *testing.T) {
		if r := newFake().invoke(nil, "-list"); r.stdout != "listing\n" || r.stderr != "" {
			t.Errorf("stdout %q stderr %q", r.stdout, r.stderr)
		}
	})
}

// Every flag of a command line is either a shape flag or an execution
// flag, never both; -resume takes the former from the journal and the
// latter from its own command line.
func TestResumeShapeFromMetaExecFromCommandLine(t *testing.T) {
	dir := t.TempDir()
	f := newFake()
	h := &harness{name: "fake", newShape: f.newShape, stderr: new(lockedBuffer)}
	shapeSet := h.shapeFlags(h.newShape())
	execSet := flag.NewFlagSet("exec", flag.ContinueOnError)
	new(Exec).bind(execSet)

	classified := map[string]int{}
	shapeSet.VisitAll(func(fl *flag.Flag) { classified[fl.Name]++ })
	execSet.VisitAll(func(fl *flag.Flag) { classified[fl.Name]++ })
	for name, n := range classified {
		if n != 1 {
			t.Errorf("flag -%s is declared in %d sets", name, n)
		}
	}
	if len(classified) != 5+10 {
		t.Errorf("%d flags, want the fake's 5 and the 10 execution flags", len(classified))
	}

	journal := filepath.Join(dir, "j")
	ref := f.invoke(nil, "-cells", "4", "-sweeps", "3", "-seed", "7", "-workers", "1", "-journal", journal)
	if ref.code != 0 {
		t.Fatalf("reference run: exit %d: %s", ref.code, ref.stderr)
	}
	refMeta := f.meta

	// The resume line contradicts every shape flag, and sets every
	// execution flag that does not select another mode.
	otherShape := map[string]string{"cells": "2", "sweeps": "1", "seed": "99", "fail": "0", "list": "true"}
	ownExec := map[string]string{
		"workers": "3", "cpuprofile": filepath.Join(dir, "cpu"), "memprofile": filepath.Join(dir, "mem"),
		"cluster-key": "k", "resume": journal,
	}
	otherMode := map[string]bool{"journal": true, "repro": true, "serve-worker": true, "workers-remote": true, "distributed": true}
	var line []string
	shapeSet.VisitAll(func(fl *flag.Flag) {
		v, ok := otherShape[fl.Name]
		if !ok {
			t.Fatalf("shape flag -%s has no contradicting value in this test", fl.Name)
		}
		line = append(line, "-"+fl.Name+"="+v)
	})
	execSet.VisitAll(func(fl *flag.Flag) {
		if v, ok := ownExec[fl.Name]; ok {
			line = append(line, "-"+fl.Name+"="+v)
		} else if !otherMode[fl.Name] {
			t.Fatalf("execution flag -%s is neither set nor excused in this test", fl.Name)
		}
	})
	got := f.invoke(nil, line...)
	if got.code != 0 {
		t.Fatalf("resume: exit %d: %s", got.code, got.stderr)
	}
	if !reflect.DeepEqual(f.meta, refMeta) {
		t.Errorf("resumed shape %v, want the journal's %v", f.meta, refMeta)
	}
	if tables(got.stdout) != tables(ref.stdout) {
		t.Errorf("resumed output differs:\n%s\nwant:\n%s", got.stdout, ref.stdout)
	}
	var want Exec
	wantSet := flag.NewFlagSet("want", flag.ContinueOnError)
	want.bind(wantSet)
	for name, v := range ownExec {
		if err := wantSet.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if f.exec != want {
		t.Errorf("the program saw %+v, the resume line said %+v", f.exec, want)
	}
	for _, p := range []string{ownExec["cpuprofile"], ownExec["memprofile"]} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("profile not written: %v", err)
		}
	}
	if !strings.Contains(got.stderr, "resuming "+journal+" (12 journaled cells)") {
		t.Errorf("stderr %q", got.stderr)
	}

	// An execution flag cannot come from a meta.
	if _, err := h.shapeOf(fleet.JournalMeta{Tool: "fake", Args: []string{"-workers", "3"}}); err == nil {
		t.Error("a meta carrying -workers parsed")
	}
}

// An interrupt mid-sweep drains: the cell in flight finishes and is
// journaled, the footer names the resume command, the exit code is 130,
// the handler is unsubscribed, and the resumed output is the
// uninterrupted one.
func TestInterruptDrainsAndResumes(t *testing.T) {
	dir := t.TempDir()
	ref := newFake().invoke(nil, "-workers", "1")

	f := newFake()
	notify, stopped := f.interruptAt(1, 2)
	journal := filepath.Join(dir, "j")
	r := f.invoke(notify, "-workers", "1", "-journal", journal)
	if r.code != 130 {
		t.Fatalf("exit %d, want 130\n%s", r.code, r.stderr)
	}
	if want := "INTERRUPTED — resume with: fake -resume " + journal + "\n"; !strings.HasSuffix(r.stdout, want) {
		t.Errorf("stdout %q lacks the footer %q", r.stdout, want)
	}
	if !strings.Contains(r.stderr, "fake: interrupt — draining in-flight cells") {
		t.Errorf("stderr %q", r.stderr)
	}
	if stopped.Load() != 1 {
		t.Errorf("signal subscription stopped %d times, want 1", stopped.Load())
	}
	want := []fleet.SweepProgress{{Sweep: 0, Total: 6, Done: 6}, {Sweep: 1, Total: 6, Done: 3}}
	if !reflect.DeepEqual(f.progress, want) {
		t.Errorf("journaled %+v, want %+v (the in-flight cell included)", f.progress, want)
	}

	f.onCell = nil
	resumed := f.invoke(nil, "-resume", journal, "-workers", "1")
	if resumed.code != 0 || resumed.stdout != ref.stdout {
		t.Errorf("resumed: exit %d\n%s\nwant:\n%s\nstderr: %s", resumed.code, resumed.stdout, ref.stdout, resumed.stderr)
	}
	if !strings.Contains(resumed.stderr, "(9 journaled cells)") {
		t.Errorf("stderr %q", resumed.stderr)
	}
	if n := len(f.ran); n != 9+3 {
		t.Errorf("%d cells executed across both runs, want 12: the resume re-ran journaled cells", n)
	}

	// Without a journal the footer says how to get one.
	f = newFake()
	notify, _ = f.interruptAt(0, 0)
	r = f.invoke(notify, "-workers", "1")
	if r.code != 130 || !strings.Contains(r.stdout, "run with -journal") {
		t.Errorf("exit %d stdout %q", r.code, r.stdout)
	}
}

// A failed cell is journaled and the harness names the journal once;
// -repro of the journal replays exactly that cell of exactly that sweep.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := newFake()
	f.failing.Store(true)
	journal := filepath.Join(dir, "j")
	r := f.invoke(nil, "-fail", "4", "-journal", journal)
	if r.code != 1 {
		t.Fatalf("exit %d, want 1\n%s", r.code, r.stderr)
	}
	if want := "fake: failed cells journaled: replay with fake -repro " + journal + "\n"; strings.Count(r.stderr, "-repro") != 1 || !strings.Contains(r.stderr, want) {
		t.Fatalf("stderr lacks the one line %q:\n%s", want, r.stderr)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Errorf("the run wrote %d files, want only the journal", len(files))
	}

	f.ran = nil
	r = f.invoke(nil, "-repro", journal)
	if r.code != 1 || !strings.Contains(r.stdout, "=== reproduced: error: boom") {
		t.Errorf("exit %d, want 1 and the failure reproduced\n%s%s", r.code, r.stdout, r.stderr)
	}
	if !strings.Contains(r.stdout, "=== repro: fake -cells 6 -sweeps 2 -seed 1 -fail 4: sweep 1 cell 4 (sweep 1 cell 4)") {
		t.Errorf("banner: %s", r.stdout)
	}
	// Sweep numbering in a repro is the foreground's: of the program's
	// twelve cells exactly cell 4 of its second sweep executed.
	if want := [][2]int{{1, 4}}; !reflect.DeepEqual(f.ran, want) {
		t.Errorf("repro executed %v, want %v", f.ran, want)
	}

	f.failing.Store(false)
	r = f.invoke(nil, "-repro", journal)
	if r.code != 0 || !strings.Contains(r.stdout, "did not reproduce") {
		t.Errorf("exit %d, want 0 with the failure switched off\n%s%s", r.code, r.stdout, r.stderr)
	}

	args := []string{"-cells", "6", "-sweeps", "2", "-seed", "1", "-fail", "4"}
	foreign := filepath.Join(dir, "foreign")
	writeFailedJournal(t, foreign, fleet.JournalMeta{Tool: "other", Args: args}, 2)
	r = f.invoke(nil, "-repro", foreign)
	if r.code != 2 || !strings.Contains(r.stderr, `written by "other", not fake`) {
		t.Errorf("exit %d, want 2 naming the other tool\n%s", r.code, r.stderr)
	}

	stale := filepath.Join(dir, "stale")
	writeFailedJournal(t, stale, fleet.JournalMeta{Tool: "fake", Args: args}, 6)
	r = f.invoke(nil, "-repro", stale)
	if r.code != 1 || !strings.Contains(r.stderr, "never executed") {
		t.Errorf("exit %d, want 1 for a cell the program never makes\n%s", r.code, r.stderr)
	}

	clean := filepath.Join(dir, "clean")
	if r := f.invoke(nil, "-journal", clean); r.code != 0 || strings.Contains(r.stderr, "-repro") {
		t.Fatalf("clean run: exit %d\n%s", r.code, r.stderr)
	}
	r = f.invoke(nil, "-repro", clean)
	if r.code != 2 || !strings.Contains(r.stderr, "records no failed cell") || r.stdout != "" {
		t.Errorf("exit %d, want 2 for a journal without a failure\n%s%s", r.code, r.stdout, r.stderr)
	}
}

// writeFailedJournal journals a run of meta with sweeps one-cell sweeps,
// the last of which fails.
func writeFailedJournal(t *testing.T, path string, meta fleet.JournalMeta, sweeps int) {
	t.Helper()
	j, err := fleet.CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	run := &fleet.Run{Journal: j}
	for sw := 0; sw < sweeps; sw++ {
		fleet.MapOpts(fleet.Options{Workers: 1, Run: run}, 1, func(_, _ int) (int, error) {
			if sw == sweeps-1 {
				return 0, errors.New("boom")
			}
			return 0, nil
		})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// sweepLog is a SweepServer that records the sweeps offered to it and
// runs none of their cells.
type sweepLog struct{ sweeps [][2]int }

func (l *sweepLog) ServeSweep(sweep uint32, n int, _ func(uint32) *fleet.CellOutcome) error {
	l.sweeps = append(l.sweeps, [2]int{int(sweep), n})
	return nil
}

// The one program numbers its sweeps identically whether it runs in the
// foreground or as a worker's Start (TestReproRoundTrip covers -repro).
func TestProgramNumbersSweepsAlikeInEveryMode(t *testing.T) {
	dir := t.TempDir()
	f := newFake()
	journal := filepath.Join(dir, "j")
	if r := f.invoke(nil, "-sweeps", "3", "-cells", "2", "-journal", journal); r.code != 0 {
		t.Fatalf("exit %d: %s", r.code, r.stderr)
	}
	foreground := f.progress
	if len(foreground) != 3 {
		t.Fatalf("foreground made %+v, want 3 sweeps", foreground)
	}
	j, err := fleet.ResumeJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	h := &harness{name: "fake", newShape: f.newShape, stderr: new(lockedBuffer)}
	var served sweepLog
	f.ran = nil
	if err := h.workerStart(new(Exec))(context.Background(), j.Meta(), &fleet.Run{Serve: &served}); err != nil {
		t.Fatal(err)
	}
	for i, p := range foreground {
		if got := served.sweeps[i]; got != [2]int{int(p.Sweep), p.Total} {
			t.Errorf("worker sweep %d is %v, foreground made sweep %d of %d cells", i, got, p.Sweep, p.Total)
		}
	}
	if len(served.sweeps) != len(foreground) || len(f.ran) != 0 {
		t.Errorf("worker made %v and executed %v unasked", served.sweeps, f.ran)
	}

	meta := j.Meta()
	meta.Tool = "other"
	if err := h.workerStart(new(Exec))(context.Background(), meta, &fleet.Run{Serve: &served}); err == nil || !strings.Contains(err.Error(), `"other"`) {
		t.Errorf("a worker started another tool's run: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.workerStart(new(Exec))(ctx, j.Meta(), &fleet.Run{Serve: &served}); !errors.Is(err, context.Canceled) {
		t.Errorf("a cancelled worker program returned %v", err)
	}
}

// -distributed forks this binary as two workers (TestMain), renders the
// serial bytes, reports a clean fabric, profiles every process, and
// resumes under whatever distribution the resume line asks for.
func TestDistributedMatchesSerial(t *testing.T) {
	t.Setenv(workerEnv, "1")
	dir := t.TempDir()
	f := newFake()
	args := []string{"-cells", "40", "-sweeps", "3", "-seed", "5"}
	ref := f.invoke(nil, append(args, "-workers", "1")...)

	journal, profile, memProfile := filepath.Join(dir, "j"), filepath.Join(dir, "p"), filepath.Join(dir, "m")
	r := f.invoke(nil, append(args, "-journal", journal, "-distributed", "2", "-cpuprofile", profile, "-memprofile", memProfile)...)
	if r.code != 0 {
		t.Fatalf("exit %d: %s", r.code, r.stderr)
	}
	if tables(r.stdout) != tables(ref.stdout) {
		t.Errorf("distributed output differs:\n%s\nwant:\n%s", r.stdout, ref.stdout)
	}
	if !strings.Contains(r.stderr, "fake: dist: redials=0 reassignments=0 fenced-zombie-attempts=0") {
		t.Errorf("no all-zero dist: line in\n%s", r.stderr)
	}
	if len(f.ran) != 120 { // the reference run's; the coordinator executes nothing
		t.Errorf("the coordinator executed %d cells itself", len(f.ran)-120)
	}
	for _, p := range []string{profile, profile + ".w0", profile + ".w1", memProfile, memProfile + ".w0", memProfile + ".w1"} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", p, err)
		}
	}
	if stray, _ := filepath.Glob(journal + ".w*"); len(stray) != 0 {
		t.Errorf("the workers wrote journals beside the canonical one: %v", stray)
	}

	r = f.invoke(nil, "-resume", journal, "-distributed", "1")
	if r.code != 0 || tables(r.stdout) != tables(ref.stdout) {
		t.Errorf("distributed resume: exit %d\n%s\n%s", r.code, r.stdout, r.stderr)
	}
	if !strings.Contains(r.stderr, "(120 journaled cells)") || !strings.Contains(r.stderr, "fake: dist: ") {
		t.Errorf("stderr %s", r.stderr)
	}
}

// Older builds left worker journals at <journal>.w<i>. The workers keep
// none now, so such a file does nothing: a -distributed run at that
// journal path, and its resume, exit 0 with the serial tables and leave
// the stale files as they were.
func TestDistributedIgnoresStaleWorkerJournals(t *testing.T) {
	t.Setenv(workerEnv, "1")
	journal := filepath.Join(t.TempDir(), "t.journal")
	f := newFake()
	shape := []string{"-cells", "40", "-sweeps", "2"}
	run := func(seed string, exec ...string) result {
		return f.invoke(nil, append(append(shape, "-seed", seed), exec...)...)
	}
	// What an older build's worker left: another run's journal, with a
	// cell of it.
	if r := run("1", "-journal", journal+".w0", "-workers", "1"); r.code != 0 {
		t.Fatalf("seed 1: exit %d: %s", r.code, r.stderr)
	}
	stale, err := os.ReadFile(journal + ".w0")
	if err != nil {
		t.Fatal(err)
	}

	ref := run("2", "-workers", "1")
	if r := run("2", "-journal", journal, "-distributed", "2"); r.code != 0 || tables(r.stdout) != tables(ref.stdout) {
		t.Errorf("seed 2 beside seed 1's worker journal: exit %d\n%s\nwant:\n%s\n%s", r.code, r.stdout, ref.stdout, r.stderr)
	}
	if r := f.invoke(nil, "-resume", journal, "-distributed", "2"); r.code != 0 || tables(r.stdout) != tables(ref.stdout) {
		t.Errorf("resume beside seed 1's worker journal: exit %d\n%s\nwant:\n%s\n%s", r.code, r.stdout, ref.stdout, r.stderr)
	}
	if after, err := os.ReadFile(journal + ".w0"); err != nil || !bytes.Equal(after, stale) {
		t.Errorf("the stale worker journal was touched (%v)", err)
	}
}
