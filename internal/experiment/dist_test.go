package experiment

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
)

// Distributed-run integration proof (DESIGN.md §12): the exhibits that
// pin the repository's byte-level contract — figs 2/3/15 and adversity
// — must render identically whether their cells execute in-process or
// sharded across worker processes over RPC, and the distributed run
// must survive a SIGKILL of any worker and of the coordinator itself.
// Worker and coordinator child processes are re-executions of this test
// binary (see TestMain), so chaos tests kill real processes and the
// children are race-instrumented whenever the tests are.

// distTestTool names the journals these tests write.
const distTestTool = "experiment-dist-test"

// distTestScale mirrors the other crash tests: Quick normally, tiny
// under the race detector.
func distTestScale() Scale {
	if fleet.RaceEnabled {
		return Scale{Trials: tiny.Trials, Horizon: tiny.Horizon, Workers: 4}
	}
	return Scale{Trials: Quick.Trials, Horizon: Quick.Horizon, Workers: 4}
}

// distMeta encodes everything a worker needs to re-derive the run — the
// seed, and the exhibit and scale via Args — into the journal meta that
// Configure ships.
func distMeta(id string, seed uint64, sc Scale) fleet.JournalMeta {
	return fleet.JournalMeta{
		Tool: distTestTool, Seed: seed,
		Args: []string{
			id,
			strconv.FormatFloat(sc.Trials, 'g', -1, 64),
			strconv.FormatFloat(sc.Horizon, 'g', -1, 64),
		},
	}
}

// distEntryStart is the worker-side program: re-derive the exhibit run
// from the journal meta and execute it with the session's SweepServer
// attached. It must mirror the coordinator's control flow exactly —
// both run the comma-separated exhibits of the meta as one Program — so
// (sweep, cell) addressing agrees.
func distEntryStart(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error {
	if len(meta.Args) != 3 {
		return fmt.Errorf("meta args %q: want exhibits, trials, horizon", meta.Args)
	}
	trials, err := strconv.ParseFloat(meta.Args[1], 64)
	if err != nil {
		return err
	}
	horizon, err := strconv.ParseFloat(meta.Args[2], 64)
	if err != nil {
		return err
	}
	entries, err := lookupAll(meta.Args[0])
	if err != nil {
		return err
	}
	sc := Scale{Trials: trials, Horizon: horizon, Workers: 4, Ctx: ctx, Run: run}
	for _, e := range Program(entries) {
		// Cell failures surface as journaled outcomes on the coordinator;
		// a sweep's aggregate panic must not kill the worker program.
		func() {
			defer func() { recover() }()
			e.Run(meta.Seed, sc)
		}()
	}
	return nil
}

// lookupAll finds the entries of comma-separated exhibit IDs.
func lookupAll(ids string) ([]Entry, error) {
	var entries []Entry
	for _, id := range strings.Split(ids, ",") {
		e, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// TestMain dispatches the helper roles chaos tests fork: a worker
// serving cells, and a coordinator that can be SIGKILLed mid-merge.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		switch {
		case a == "-hbdist.worker":
			os.Exit(distWorkerMain(os.Args[1:]))
		case a == "-hbdist.coord":
			os.Exit(distCoordMain(os.Args[1:]))
		}
	}
	os.Exit(m.Run())
}

// argVal extracts the value of a -key=value helper argument.
func argVal(args []string, prefix string) string {
	for _, a := range args {
		if strings.HasPrefix(a, prefix) {
			return strings.TrimPrefix(a, prefix)
		}
	}
	return ""
}

func distWorkerMain(args []string) int {
	return dist.ServeWorker(argVal(args, "-hbdist.addr="), dist.WorkerOptions{
		Key:   dist.ResolveKey(""),
		Start: distEntryStart,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "dist-test worker: "+format+"\n", a...)
		},
	})
}

// distCoordMain is the killable coordinator: create (or resume) the
// canonical journal, shard the exhibit across the given workers, print
// the rendering on stdout. -hbdist.slow throttles each dispatch so the
// parent's poll-then-SIGKILL reliably lands mid-merge — the exhibits
// otherwise complete in milliseconds.
func distCoordMain(args []string) int {
	die := func(err error) int { fmt.Fprintln(os.Stderr, "dist-test coord:", err); return 1 }
	journalPath := argVal(args, "-hbdist.journal=")
	addrs := strings.Split(argVal(args, "-hbdist.addrs="), ",")
	id := argVal(args, "-hbdist.exhibit=")
	seed, _ := strconv.ParseUint(argVal(args, "-hbdist.seed="), 10, 64)
	slow, _ := time.ParseDuration(argVal(args, "-hbdist.slow="))
	sc := distTestScale()
	j, err := fleet.CreateJournal(journalPath, distMeta(id, seed, sc))
	if err != nil {
		return die(err)
	}
	defer j.Close()
	coord, err := dist.Connect(addrs, j, j.Meta(), dist.Options{})
	if err != nil {
		return die(err)
	}
	defer coord.Close()
	e, err := Lookup(id)
	if err != nil {
		return die(err)
	}
	sc.Run = &fleet.Run{Journal: j, Dispatch: &slowDispatch{Coordinator: coord, delay: slow}}
	sc.Workers = coord.Slots()
	fmt.Print(renderAll(e.Run(seed, sc)))
	return 0
}

// slowDispatch throttles a coordinator's dispatches. Pure pacing: cell
// results are seed-determined, so it cannot change a byte of output.
type slowDispatch struct {
	*dist.Coordinator
	delay time.Duration
}

func (s *slowDispatch) DispatchCell(sweep, cell uint32, label string) (*fleet.CellOutcome, error) {
	out, err := s.Coordinator.DispatchCell(sweep, cell, label)
	time.Sleep(s.delay)
	return out, err
}

// killAfterFirst fires kill exactly once, synchronously, as the first
// dispatched cell returns — guaranteeing the SIGKILL lands while the
// sweep still has cells in flight, not after the run happens to finish.
type killAfterFirst struct {
	*dist.Coordinator
	once sync.Once
	kill func()
}

func (k *killAfterFirst) DispatchCell(sweep, cell uint32, label string) (*fleet.CellOutcome, error) {
	out, err := k.Coordinator.DispatchCell(sweep, cell, label)
	k.once.Do(k.kill)
	return out, err
}

// remoteCount counts the cells a wrapped dispatcher resolved remotely —
// every DispatchCell that did not hand its cell back for local
// execution — so a silent local fallback shows up as a shortfall.
type remoteCount struct {
	fleet.Dispatcher
	n atomic.Int64
}

func (r *remoteCount) DispatchCell(sweep, cell uint32, label string) (*fleet.CellOutcome, error) {
	out, err := r.Dispatcher.DispatchCell(sweep, cell, label)
	if err == nil {
		r.n.Add(1)
	}
	return out, err
}

// startLocalWorkers runs n in-process dist workers on loopback and
// returns their addresses. They stop at the end of the test.
func startLocalWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w := dist.NewWorker(dist.WorkerOptions{Start: distEntryStart, Logf: t.Logf})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(lis)
		t.Cleanup(w.Stop)
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// serialJournal runs the exhibit serially with a journal attached and
// returns the canonical journal.
func serialJournal(t *testing.T, e Entry, id string, seed uint64, sc Scale) []fleet.JournalRecord {
	t.Helper()
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	j, err := fleet.CreateJournal(refPath, distMeta(id, seed, sc))
	if err != nil {
		t.Fatal(err)
	}
	rsc := sc
	rsc.Run = &fleet.Run{Journal: j}
	e.Run(seed, rsc)
	j.Close()
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return scan.Canonical()
}

// TestDistributedMatchesSerial shards each contract exhibit across
// three workers and requires the rendering to match the serial run byte
// for byte — and, at Quick scale, the committed goldens: distribution
// must not be able to shift recorded results even one byte.
func TestDistributedMatchesSerial(t *testing.T) {
	for _, id := range []string{"2", "3", "15", "adversity"} {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			t.Parallel()
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 1
			sc := distTestScale()
			want := renderAll(e.Run(seed, sc))

			if !fleet.RaceEnabled {
				name := id
				if id[0] >= '0' && id[0] <= '9' {
					name = "fig" + id
				}
				golden, err := os.ReadFile(filepath.Join("testdata", name+"_quick.golden"))
				if err != nil {
					t.Fatal(err)
				}
				if want != string(golden) {
					line, w, g := firstDiff(string(golden), want)
					t.Fatalf("serial reference diverges from golden at line %d:\nwant %q\ngot  %q", line, w, g)
				}
			}

			addrs := startLocalWorkers(t, 3)
			j, err := fleet.CreateJournal(filepath.Join(t.TempDir(), "run.journal"), distMeta(id, seed, sc))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			coord, err := dist.Connect(addrs, j, j.Meta(), dist.Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			remote := &remoteCount{Dispatcher: coord}
			dsc := sc
			dsc.Run = &fleet.Run{Journal: j, Dispatch: remote}
			dsc.Workers = coord.Slots()
			got := renderAll(e.Run(seed, dsc))
			if got != want {
				line, w, g := firstDiff(want, got)
				t.Fatalf("distributed run diverges from serial at line %d:\nwant %q\ngot  %q", line, w, g)
			}
			if live := coord.Live(); live != 3 {
				t.Fatalf("Live() = %d after a healthy run, want 3", live)
			}
			// Every cell must have executed on a worker: a silent local
			// fallback shows up as a shortfall here.
			done := journalDone(j)
			if n := int(remote.n.Load()); n != done {
				t.Fatalf("%d cells resolved remotely, canonical run completed %d", n, done)
			}
			// fig 2 is a static table with no sweep; every other exhibit
			// must actually have sharded work.
			if done == 0 && id != "2" {
				t.Fatal("no cells executed remotely")
			}
			// A row's payload does not depend on the process that coded
			// it, so a Row exhibit's distributed journal is its serial one.
			if id == "adversity" {
				serial := serialJournal(t, e, id, seed, sc)
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(j.Path())
				if err != nil {
					t.Fatal(err)
				}
				scan, err := fleet.ScanJournal(data)
				if err != nil {
					t.Fatal(err)
				}
				if got := scan.Canonical(); !reflect.DeepEqual(got, serial) {
					t.Fatalf("distributed journal is not the serial one: %d canonical records vs %d", len(got), len(serial))
				}
			}
		})
	}
}

// forkedWorkerArgs is the command line of a forked worker process: this
// test binary in its worker role (see TestMain).
func forkedWorkerArgs(int) []string {
	return []string{"-hbdist.worker", "-hbdist.addr=127.0.0.1:0"}
}

// journalDone sums completed cells across sweeps.
func journalDone(j *fleet.Journal) int {
	done := 0
	for _, p := range j.Progress() {
		done += p.Done
	}
	return done
}

// TestChaosWorkerSIGKILL runs fig 15 across three real worker
// processes and SIGKILLs one the instant the first cell completes —
// strictly mid-sweep, with leases in flight on the victim. The run must
// still complete with the exact serial bytes: the dead worker's leases
// fail and its cells reassign to the survivors.
func TestChaosWorkerSIGKILL(t *testing.T) {
	e, err := Lookup("15")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	sc := distTestScale()
	want := renderAll(e.Run(seed, sc))

	forked, err := dist.Fork(os.Args[0], 3, forkedWorkerArgs)
	if err != nil {
		t.Fatal(err)
	}
	defer forked.Stop()

	j, err := fleet.CreateJournal(filepath.Join(t.TempDir(), "run.journal"), distMeta("15", seed, sc))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	coord, err := dist.Connect(forked.Addrs, j, j.Meta(), dist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	dsc := sc
	dsc.Run = &fleet.Run{Journal: j, Dispatch: &killAfterFirst{
		Coordinator: coord,
		kill: func() {
			if err := forked.Kill(0); err != nil {
				t.Errorf("kill worker 0: %v", err)
			}
			t.Log("worker 0 SIGKILLed mid-sweep")
		},
	}}
	dsc.Workers = coord.Slots()
	got := renderAll(e.Run(seed, dsc))
	if got != want {
		line, w, g := firstDiff(want, got)
		t.Fatalf("post-SIGKILL run diverges from serial at line %d:\nwant %q\ngot  %q", line, w, g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Live() != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if live := coord.Live(); live != 2 {
		t.Fatalf("Live() = %d after killing one of three workers, want 2", live)
	}
}

// TestChaosCoordinatorSIGKILL runs the adversity exhibit under a
// coordinator *process* and SIGKILLs it once results are mid-merge into
// the canonical journal, then resumes in-process against the same still
// -running workers. The resumed rendering must match an uninterrupted
// serial run byte for byte: the resumed journal replays every cell the
// dead coordinator made durable, and the workers re-execute the rest.
func TestChaosCoordinatorSIGKILL(t *testing.T) {
	e, err := Lookup("adversity")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	sc := distTestScale()
	want := renderAll(e.Run(seed, sc))

	forked, err := dist.Fork(os.Args[0], 2, forkedWorkerArgs)
	if err != nil {
		t.Fatal(err)
	}
	defer forked.Stop()

	canonical := filepath.Join(t.TempDir(), "run.journal")
	coordCmd := exec.Command(os.Args[0],
		"-hbdist.coord",
		"-hbdist.journal="+canonical,
		"-hbdist.addrs="+strings.Join(forked.Addrs, ","),
		"-hbdist.exhibit=adversity",
		"-hbdist.seed="+strconv.FormatUint(seed, 10),
		"-hbdist.slow=20ms",
	)
	coordCmd.Stdout = os.Stderr // rendering is discarded; diagnostics stay visible
	coordCmd.Stderr = os.Stderr
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill once at least one cell has merged into the canonical journal:
	// mid-merge, with sweeps in flight on both workers.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			coordCmd.Process.Kill()
			t.Fatal("coordinator never merged a cell")
		}
		data, err := os.ReadFile(canonical)
		if err == nil {
			if scan, err := fleet.ScanJournal(data); err == nil && len(scan.Records) > 0 {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := coordCmd.Process.Kill(); err != nil {
		t.Fatalf("kill coordinator: %v", err)
	}
	coordCmd.Wait() // expected to report the kill; the journal is what matters

	// Resume from the possibly-torn canonical journal. A fresh
	// generation tears down the workers' half-run programs.
	j, err := fleet.ResumeJournal(canonical)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	coord, err := dist.Connect(forked.Addrs, j, j.Meta(), dist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if j.Replayable() == 0 {
		t.Fatal("resume recovered no cells from the killed coordinator's run")
	}
	dsc := sc
	dsc.Run = &fleet.Run{Journal: j, Dispatch: coord}
	dsc.Workers = coord.Slots()
	got := renderAll(e.Run(seed, dsc))
	if got != want {
		line, w, g := firstDiff(want, got)
		t.Fatalf("resumed run diverges from serial at line %d:\nwant %q\ngot  %q", line, w, g)
	}
}
