package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"halfback/internal/sim"
)

// harness is the state of one benchmark process: where the repository
// and the built CLIs are, and the per-run scratch directory that holds
// journals and is removed on exit.
type harness struct {
	ctx    context.Context
	root   string // repository root (holds go.mod of module halfback)
	binDir string
	runDir string
	fsType string
	buildS float64
	tr     *tracer // nil outside the traced pass
	// dist sums the coordinator metrics lines of every distributed
	// invocation of this run, failed ones included.
	dist distMetrics
}

// repTimeout bounds one child invocation; the slowest is ~2 s.
const repTimeout = 120 * time.Second

func newHarness(ctx context.Context) (*harness, error) {
	// `go run -C benchmark .` starts the harness inside benchmark/; the
	// repository root is the parent.
	root, err := filepath.Abs("..")
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !bytes.HasPrefix(mod, []byte("module halfback\n")) {
		return nil, fmt.Errorf("repository root not found at %s (want go.mod of module halfback)", root)
	}
	h := &harness{ctx: ctx, root: root, binDir: filepath.Join(root, ".bench_build", "bin")}
	// Journals must hit a real filesystem (fsync is what fleet_journal
	// measures), so scratch lives in the checkout, not in a tmpfs /tmp.
	h.runDir = filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(h.runDir, 0o755); err != nil {
		return nil, err
	}
	h.fsType = fsTypeOf(h.runDir)
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.runDir) }

// build compiles the two CLIs from the checkout. With a warm build cache
// this is about a second; the first run in a checkout pays the cold
// build.
func (h *harness) build() error {
	var err error
	d := h.tr.in("cmd.build", func() {
		cmd := exec.CommandContext(h.ctx, "go", "build", "-o", h.binDir+string(filepath.Separator),
			"./cmd/halfback-sim", "./cmd/fctsweep")
		cmd.Dir = h.root
		var out []byte
		if out, err = cmd.CombinedOutput(); err != nil {
			err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	h.buildS = d.Seconds()
	return err
}

// rep is one finished child invocation.
type rep struct {
	wallS, cpuS, rssMB float64
	stdout, stderr     []byte
	err                error
}

// exec runs one CLI invocation to completion. wall is fork to exit; cpu
// is user+system time of the child and every descendant it reaped (the
// forked dist workers), from the rusage wait4 returns. The child gets
// the harness's environment untouched: the CLIs own their GOGC and
// GOMAXPROCS defaults.
func (h *harness) exec(bin string, args ...string) rep {
	var r rep
	h.tr.in("cmd.exec "+bin, func() {
		ctx, cancel := context.WithTimeout(h.ctx, repTimeout)
		defer cancel()
		cmd := exec.CommandContext(ctx, filepath.Join(h.binDir, bin), args...)
		cmd.Dir = h.runDir
		// Own process group, so a timeout or interrupt also takes the
		// forked workers down.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		r.err = cmd.Run()
		r.wallS = time.Since(start).Seconds()
		r.stdout, r.stderr = stdout.Bytes(), stderr.Bytes()
		if ps := cmd.ProcessState; ps != nil {
			r.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
			}
		}
	})
	return r
}

// journalPath is where a journaled workload writes; its forked workers
// add <path>.w0 and <path>.w1 beside it.
func (h *harness) journalPath() string { return filepath.Join(h.runDir, "j") }

func (h *harness) removeJournals() {
	matches, _ := filepath.Glob(h.journalPath() + "*")
	for _, m := range matches {
		os.Remove(m)
	}
}

// runWorkload executes one repetition of w and checks it: exit 0, stdout
// byte-equal to the reference render once banners are stripped, and, for
// the distributed workload, a coordinator metrics line reporting no
// redial and no reassignment (on loopback either one is a failure of the
// fabric, not weather). keepJournal leaves the journal for the caller to
// inspect; the next repetition removes it.
func (h *harness) runWorkload(w *workloadDef, seed uint64, ref []byte, keepJournal bool) (rep, error) {
	h.removeJournals()
	journal := ""
	if w.journal {
		journal = h.journalPath()
	}
	r := h.exec(w.bin, w.args(seed, journal)...)
	if !keepJournal {
		h.removeJournals()
	}
	if r.err != nil {
		return r, fmt.Errorf("%s: %v\n%s", w.name, r.err, tail(r.stderr))
	}
	if got := stripBanners(r.stdout); !bytes.Equal(got, ref) {
		return r, fmt.Errorf("%s: stdout differs from the in-process render (sha256 %s, want %s)",
			w.name, sha(got), sha(ref))
	}
	if w.dist {
		dm, ok := parseDistLine(r.stderr)
		h.dist.redials += dm.redials
		h.dist.reassignments += dm.reassignments
		switch {
		case !ok:
			return r, fmt.Errorf("%s: no coordinator dist: metrics line on stderr", w.name)
		case dm.redials != 0 || dm.reassignments != 0:
			return r, fmt.Errorf("%s: loopback fabric was not clean: redials=%d reassignments=%d",
				w.name, dm.redials, dm.reassignments)
		}
	}
	return r, nil
}

// reference is one serial in-process run of the workload's program under
// the GC setting its CLI uses, with the simulator's process-wide counters
// read around it.
type reference struct {
	rendered
	events, timerCancels, peakPending uint64
	mallocs, allocBytes               uint64
}

func (h *harness) reference(w *workloadDef, seed uint64, tr *tracer) reference {
	defer debug.SetGCPercent(debug.SetGCPercent(w.gcPercent))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0, tc0 := sim.ProcessedTotal(), sim.TimerCancelsTotal()
	sim.TakePeakPending()
	ref := reference{rendered: w.render(seed, tr)}
	runtime.ReadMemStats(&m1)
	ref.events = sim.ProcessedTotal() - ev0
	ref.timerCancels = sim.TimerCancelsTotal() - tc0
	ref.peakPending = sim.TakePeakPending()
	ref.mallocs = m1.Mallocs - m0.Mallocs
	ref.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return ref
}

// stripBanners drops halfback-sim's "=== " progress lines, which carry
// the worker count and wall time and so differ run to run by design.
func stripBanners(out []byte) []byte {
	var kept []byte
	for len(out) > 0 {
		line := out
		if i := bytes.IndexByte(out, '\n'); i >= 0 {
			line = out[:i+1]
		}
		out = out[len(line):]
		if !bytes.HasPrefix(line, []byte("=== ")) {
			kept = append(kept, line...)
		}
	}
	return kept
}

type distMetrics struct{ redials, reassignments uint64 }

var distLine = regexp.MustCompile(`(?m)dist: redials=(\d+) reassignments=(\d+) `)

// parseDistLine finds the coordinator's end-of-run metrics line among
// the stderr diagnostics.
func parseDistLine(stderr []byte) (distMetrics, bool) {
	m := distLine.FindSubmatch(stderr)
	if m == nil {
		return distMetrics{}, false
	}
	var d distMetrics
	d.redials, _ = strconv.ParseUint(string(m[1]), 10, 64)
	d.reassignments, _ = strconv.ParseUint(string(m[2]), 10, 64)
	return d, true
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func tail(b []byte) string {
	const keep = 2000
	if len(b) > keep {
		b = b[len(b)-keep:]
	}
	return strings.TrimSpace(string(b))
}

// fsTypeOf names the filesystem under path from its statfs magic.
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// commit is the checked-out revision, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func (h *harness) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = h.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
