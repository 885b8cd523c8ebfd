package dist

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"halfback/internal/fleet"
)

// cellValue is the test cell result type on both sides of the wire.
type cellValue struct {
	Name  string
	Value float64
}

func testMeta(seed uint64) fleet.JournalMeta {
	return fleet.JournalMeta{
		Tool: "dist-test", Seed: seed,
		Args: []string{"-seed", fmt.Sprint(seed)},
	}
}

// testProgram is the deterministic program both coordinator and workers
// run in these tests: `sweeps` Map calls of `cells` cells each, every
// cell computing a value from (seed, sweep, cell) alone.
type testProgram struct {
	sweeps, cells int
	// delay, when non-zero, slows every cell — for kill-timing tests.
	delay time.Duration
	// executions counts real (non-replayed) cell executions in this
	// process.
	executions atomic.Int32
}

func (p *testProgram) value(seed uint64, sweep, cell int) cellValue {
	return cellValue{
		Name:  fmt.Sprintf("s%dc%d", sweep, cell),
		Value: float64(seed)*1000 + float64(sweep)*100 + float64(cell),
	}
}

// run executes the program with the given hooks attached; outs[s][c] is
// the coordinator-side merged value.
func (p *testProgram) run(ctx context.Context, seed uint64, workers int, run *fleet.Run) ([][]cellValue, error) {
	var outs [][]cellValue
	for s := 0; s < p.sweeps; s++ {
		if err := ctx.Err(); err != nil {
			return outs, err
		}
		sweep := s
		out, err := fleet.MapOpts(fleet.Options{
			Ctx: ctx, Workers: workers, Run: run,
			Label: func(i int) string { return fmt.Sprintf("s%dc%d", sweep, i) },
		}, p.cells, func(i, attempt int) (cellValue, error) {
			p.executions.Add(1)
			if p.delay > 0 {
				select {
				case <-time.After(p.delay):
				case <-ctx.Done():
				}
			}
			return p.value(seed, sweep, i), nil
		})
		if err != nil {
			return outs, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// start adapts the program to the worker-side StartFunc.
func (p *testProgram) start(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error {
	_, err := p.run(ctx, meta.Seed, 0, run)
	return err
}

// startWorker brings up an in-process worker on a loopback listener and
// returns its address. The worker is stopped at test end.
func startWorker(t *testing.T, opts WorkerOptions) (*Worker, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	w := NewWorker(opts)
	go w.Serve(lis)
	t.Cleanup(w.Stop)
	return w, lis.Addr().String()
}

// fastOpts are coordinator options tuned for test speed: a single
// cheap redial attempt so dead-worker tests fail over in milliseconds
// instead of walking the full production backoff ladder.
func fastOpts(t *testing.T) Options {
	return Options{
		SlotsPerWorker:  2,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 3,
		RedialAttempts:  1,
		RedialBackoff:   10 * time.Millisecond,
		DialTimeout:     2 * time.Second,
		Logf:            t.Logf,
	}
}

func newCanonJournal(t *testing.T, meta fleet.JournalMeta) *fleet.Journal {
	t.Helper()
	j, err := fleet.CreateJournal(filepath.Join(t.TempDir(), "canon.journal"), meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// A distributed run across three in-process workers produces exactly
// the serial run's values, journals every cell canonically, and
// executes nothing on the coordinator.
func TestDistributedRunMatchesSerial(t *testing.T) {
	const seed = 7
	serialProg := &testProgram{sweeps: 3, cells: 8}
	want, err := serialProg.run(context.Background(), seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	meta := testMeta(seed)
	var workers []*testProgram
	var addrs []string
	for i := 0; i < 3; i++ {
		wp := &testProgram{sweeps: 3, cells: 8}
		workers = append(workers, wp)
		_, addr := startWorker(t, WorkerOptions{
			JournalPath: filepath.Join(t.TempDir(), fmt.Sprintf("w%d.journal", i)),
			Start:       wp.start,
		})
		addrs = append(addrs, addr)
	}

	canon := newCanonJournal(t, meta)
	coord, err := Connect(addrs, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Slots is the dispatch window, not the slot count: leases are cut
	// from the cells already waiting, so the Map needs leaseCap callers
	// parked per slot for a slot to be able to fill a lease.
	if got := coord.Slots(); got != 3*2*leaseCap {
		t.Fatalf("Slots = %d, want 3 workers × 2 slots × leaseCap %d", got, leaseCap)
	}

	coordProg := &testProgram{sweeps: 3, cells: 8}
	got, err := coordProg.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	if n := coordProg.executions.Load(); n != 0 {
		t.Fatalf("%d cells executed on the coordinator, want 0", n)
	}
	totalRemote := int32(0)
	for _, wp := range workers {
		totalRemote += wp.executions.Load()
	}
	if totalRemote != 3*8 {
		t.Fatalf("%d remote executions, want exactly 24 (each cell once)", totalRemote)
	}
	for s := range want {
		for c := range want[s] {
			if got[s][c] != want[s][c] {
				t.Fatalf("sweep %d cell %d: distributed %+v, serial %+v", s, c, got[s][c], want[s][c])
			}
		}
	}

	// Every cell is durable in the canonical journal.
	if got := canon.Replayable(); got != 3*8 {
		t.Fatalf("Replayable = %d, want all 24 dispatched cells journaled", got)
	}
	coord.ShutdownWorkers()
}

// Killing a worker's process (connection reset) mid-sweep reassigns its
// in-flight cells to survivors; the run completes with identical
// results.
func TestWorkerDeathReassignsCells(t *testing.T) {
	const seed = 9
	serialProg := &testProgram{sweeps: 1, cells: 12}
	want, err := serialProg.run(context.Background(), seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	meta := testMeta(seed)
	victimProg := &testProgram{sweeps: 1, cells: 12, delay: 50 * time.Millisecond}
	victim, victimAddr := startWorker(t, WorkerOptions{Start: victimProg.start})
	survivorProg := &testProgram{sweeps: 1, cells: 12, delay: 5 * time.Millisecond}
	_, survivorAddr := startWorker(t, WorkerOptions{Start: survivorProg.start})

	canon := newCanonJournal(t, meta)
	coord, err := Connect([]string{victimAddr, survivorAddr}, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Kill the victim as soon as it has executed at least one cell —
	// mid-sweep, with leases outstanding.
	go func() {
		for victimProg.executions.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		victim.Stop()
	}()

	coordProg := &testProgram{sweeps: 1, cells: 12}
	got, err := coordProg.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d after reassignment: %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	if live := coord.Live(); live != 1 {
		t.Fatalf("Live = %d after killing one of two workers, want 1", live)
	}
}

// With every worker dead the dispatcher reports ErrNoWorkers and fleet
// falls back to local execution — the run still completes with the same
// bytes.
func TestAllWorkersDeadFallsBackLocal(t *testing.T) {
	const seed = 3
	meta := testMeta(seed)
	wp := &testProgram{sweeps: 1, cells: 4}
	w, addr := startWorker(t, WorkerOptions{Start: wp.start})

	canon := newCanonJournal(t, meta)
	coord, err := Connect([]string{addr}, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w.Stop() // the whole fleet dies before any cell runs

	coordProg := &testProgram{sweeps: 1, cells: 4}
	got, err := coordProg.run(context.Background(), seed, 2,
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	if n := coordProg.executions.Load(); n != 4 {
		t.Fatalf("%d local fallback executions, want all 4", n)
	}
	serial := &testProgram{sweeps: 1, cells: 4}
	want, _ := serial.run(context.Background(), seed, 1, nil)
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("fallback cell %d = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
}

// Configure with the same generation is an idempotent reconnect: the
// program keeps running and the snapshot is re-uploaded; a new
// generation replaces the session.
func TestConfigureGenerations(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "w.journal")
	var starts atomic.Int32
	start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		starts.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	w, _ := startWorker(t, WorkerOptions{JournalPath: jpath, Start: start})

	waitStarts := func(want int32, context string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for starts.Load() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := starts.Load(); got != want {
			t.Fatalf("%s: %d program starts, want %d", context, got, want)
		}
	}

	api := &workerAPI{w}
	meta := testMeta(1)
	var r1, r2, r3 ConfigureReply
	if err := api.Configure(&ConfigureArgs{Gen: 10, Proto: ProtoVersion, Meta: meta}, &r1); err != nil {
		t.Fatal(err)
	}
	waitStarts(1, "first configure")
	if err := api.Configure(&ConfigureArgs{Gen: 10, Proto: ProtoVersion, Meta: meta}, &r2); err != nil {
		t.Fatal(err)
	}
	if got := starts.Load(); got != 1 {
		t.Fatalf("same-gen reconfigure restarted the program (%d starts)", got)
	}
	if err := api.Configure(&ConfigureArgs{Gen: 11, Proto: ProtoVersion, Meta: meta}, &r3); err != nil {
		t.Fatal(err)
	}
	waitStarts(2, "new generation")
	// Stale-generation calls are refused.
	if err := api.Ping(&PingArgs{Gen: 10}, &PingReply{}); err == nil ||
		!strings.Contains(err.Error(), "stale generation") {
		t.Fatalf("stale Ping err = %v", err)
	}
	if err := api.Configure(&ConfigureArgs{Gen: 12, Proto: ProtoVersion + 1, Meta: meta}, &ConfigureReply{}); err == nil ||
		!strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("proto mismatch err = %v", err)
	}
}

// A worker's journal upload at Configure carries everything it
// completed — the coordinator-crash recovery path: a fresh coordinator
// starts whole.
func TestConfigureUploadsWorkerJournal(t *testing.T) {
	meta := testMeta(2)
	jpath := filepath.Join(t.TempDir(), "w.journal")

	// First incarnation: worker completes its 4 cells (driven by a
	// coordinator we then "crash" by just closing it).
	wp := &testProgram{sweeps: 1, cells: 4}
	_, addr := startWorker(t, WorkerOptions{JournalPath: jpath, Start: wp.start})
	canon1 := newCanonJournal(t, meta)
	coord1, err := Connect([]string{addr}, canon1, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	prog1 := &testProgram{sweeps: 1, cells: 4}
	if _, err := prog1.run(context.Background(), 2, coord1.Slots(),
		&fleet.Run{Journal: canon1, Dispatch: coord1}); err != nil {
		t.Fatal(err)
	}
	coord1.Close() // coordinator "crashes": its canonical journal is lost with it

	// Second incarnation with an EMPTY canonical journal: Connect must
	// recover all 4 cells from the worker's upload, so the re-run
	// replays everything and executes nothing anywhere.
	canon2 := newCanonJournal(t, meta)
	coord2, err := Connect([]string{addr}, canon2, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if got := canon2.Replayable(); got != 4 {
		t.Fatalf("Replayable after upload merge = %d, want 4", got)
	}
	prog2 := &testProgram{sweeps: 1, cells: 4}
	out, err := prog2.run(context.Background(), 2, coord2.Slots(),
		&fleet.Run{Journal: canon2, Dispatch: coord2})
	if err != nil {
		t.Fatal(err)
	}
	if n := prog2.executions.Load(); n != 0 {
		t.Fatalf("%d coordinator-side executions after recovery, want 0", n)
	}
	serial := &testProgram{sweeps: 1, cells: 4}
	want, _ := serial.run(context.Background(), 2, 1, nil)
	for c := range want[0] {
		if out[0][c] != want[0][c] {
			t.Fatalf("recovered cell %d = %+v, want %+v", c, out[0][c], want[0][c])
		}
	}
}

// A worker journal left behind by a different run — another seed, other
// args, another tool — is never replayed into this one: the worker
// refuses the session, naming the file and both runs, the coordinator
// does not redial, and no foreign cell reaches the canonical journal. A
// fleet with one stale worker runs on the others.
func TestConfigureRefusesForeignWorkerJournal(t *testing.T) {
	foreign := map[string]fleet.JournalMeta{
		"seed": testMeta(1),
		"args": {Tool: "dist-test", Seed: 2, Args: []string{"-seed", "2", "-scale", "0.5"}},
		"tool": {Tool: "other-tool", Seed: 2, Args: []string{"-seed", "2"}},
	}
	meta := testMeta(2)
	for name, old := range foreign {
		t.Run(name, func(t *testing.T) {
			stale := filepath.Join(t.TempDir(), "w.journal")
			wj, err := fleet.CreateJournal(stale, old)
			if err != nil {
				t.Fatal(err)
			}
			if err := appendTestCell(wj, 0, 3, "another run's cell"); err != nil {
				t.Fatal(err)
			}
			wj.Close()
			_, staleAddr := startWorker(t, WorkerOptions{JournalPath: stale, Start: (&testProgram{sweeps: 1, cells: 4}).start})

			canon := newCanonJournal(t, meta)
			_, err = Connect([]string{staleAddr}, canon, meta, fastOpts(t))
			if err == nil {
				t.Fatal("Connect succeeded against a worker holding another run's journal")
			}
			for _, want := range []string{stale, "belongs to another run", fmt.Sprintf("seed=%d", old.Seed), "seed=2", old.Tool, "remove the file"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not mention %q", err, want)
				}
			}
			if !isPermanent(err) {
				t.Errorf("refusal %v is not permanent: the coordinator would redial", err)
			}

			// With a clean worker beside the stale one the run goes ahead —
			// on the clean worker alone, with nothing foreign merged.
			wp := &testProgram{sweeps: 1, cells: 4}
			_, addr := startWorker(t, WorkerOptions{JournalPath: filepath.Join(t.TempDir(), "w.journal"), Start: wp.start})
			coord, err := Connect([]string{staleAddr, addr}, canon, meta, fastOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			if n := canon.Replayable(); n != 0 {
				t.Fatalf("%d foreign cells merged into the canonical journal", n)
			}
			prog := &testProgram{sweeps: 1, cells: 4}
			out, err := prog.run(context.Background(), 2, coord.Slots(), &fleet.Run{Journal: canon, Dispatch: coord})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := (&testProgram{sweeps: 1, cells: 4}).run(context.Background(), 2, 1, nil)
			for c := range want[0] {
				if out[0][c] != want[0][c] {
					t.Fatalf("cell %d = %+v, want %+v", c, out[0][c], want[0][c])
				}
			}
			if n := wp.executions.Load(); n != 4 {
				t.Fatalf("the clean worker executed %d of 4 cells", n)
			}
		})
	}
}

// A worker cell failure crosses the wire as a failed outcome (class
// intact), not as a worker death: the worker stays live and the
// coordinator journals the failure.
func TestWorkerCellFailureIsOutcomeNotDeath(t *testing.T) {
	meta := testMeta(4)
	start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Run: run,
			Label: func(i int) string { return fmt.Sprintf("cell-%d", i) }}, 3,
			func(i, attempt int) (cellValue, error) {
				if i == 1 {
					panic("cell 1 explodes remotely")
				}
				return cellValue{Name: fmt.Sprint(i)}, nil
			})
		return err
	}
	_, addr := startWorker(t, WorkerOptions{Start: start})
	canon := newCanonJournal(t, meta)
	coord, err := Connect([]string{addr}, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, err = fleet.MapOpts(fleet.Options{Workers: 2, Run: &fleet.Run{Journal: canon, Dispatch: coord}}, 3,
		func(i, attempt int) (cellValue, error) {
			t.Errorf("cell %d executed locally", i)
			return cellValue{}, nil
		})
	jerrs := fleet.JobErrors(err)
	if len(jerrs) != 1 || jerrs[0].Index != 1 {
		t.Fatalf("JobErrors = %v, want exactly cell 1", jerrs)
	}
	if got := jerrs[0].Class(); got != fleet.ClassPanicked {
		t.Fatalf("class = %q, want %q across the wire", got, fleet.ClassPanicked)
	}
	if coord.Live() != 1 {
		t.Fatal("worker declared dead for a cell-level failure")
	}
}

// Heartbeats detect a silently hung worker (accepts TCP, answers
// nothing) and in-flight calls on it fail over.
func TestHeartbeatDeclaresUnresponsiveWorkerDead(t *testing.T) {
	meta := testMeta(6)
	// A fake "worker": listens but never answers RPC — from the
	// coordinator's side indistinguishable from a livelocked process.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			_ = conn // accept and ignore: reads never answered
		}
	}()

	canon := newCanonJournal(t, meta)
	opts := fastOpts(t)
	opts.ConfigureTimeout = 300 * time.Millisecond
	_, err = Connect([]string{lis.Addr().String()}, canon, meta, opts)
	if err == nil {
		t.Fatal("Connect succeeded against a mute endpoint — Configure must have failed")
	}

	// Now a real worker that answers Configure but whose program hangs
	// forever without registering any sweep; pair it with a healthy one.
	// The registration deadline turns its leases into errors and
	// the cells reassign.
	hang := make(chan struct{})
	defer close(hang)
	hungStart := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		select {
		case <-hang:
		case <-ctx.Done():
		}
		return nil
	}
	_, hungAddr := startWorker(t, WorkerOptions{Start: hungStart, RegisterWait: 100 * time.Millisecond})
	okProg := &testProgram{sweeps: 1, cells: 3}
	_, okAddr := startWorker(t, WorkerOptions{Start: okProg.start})

	coord, err := Connect([]string{hungAddr, okAddr}, canon, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	coordProg := &testProgram{sweeps: 1, cells: 3}
	got, err := coordProg.run(context.Background(), 6, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	serial := &testProgram{sweeps: 1, cells: 3}
	want, _ := serial.run(context.Background(), 6, 1, nil)
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
}

// Fork launches real worker processes (this test binary re-exec'd via
// the TestMain hook), runs a distributed sweep across them, and Stop
// reaps them; their `.w<i>` journals merge back afterwards.
func TestForkLaunchesAndReapsWorkers(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := Fork(exe, 2, func(i int) []string {
		return []string{"-dist.worker", "-dist.journal", WorkerJournalPath(filepath.Join(dir, "c.journal"), i)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Addrs) != 2 {
		t.Fatalf("addrs = %v", f.Addrs)
	}
	meta := testMeta(8)
	canon := newCanonJournal(t, meta)
	coord, err := Connect(f.Addrs, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProgram{sweeps: 2, cells: 5}
	got, err := prog.run(context.Background(), 8, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	if n := prog.executions.Load(); n != 0 {
		t.Fatalf("%d coordinator executions, want 0", n)
	}
	serial := &testProgram{sweeps: 2, cells: 5}
	want, _ := serial.run(context.Background(), 8, 1, nil)
	for s := range want {
		for c := range want[s] {
			if got[s][c] != want[s][c] {
				t.Fatalf("sweep %d cell %d = %+v, want %+v", s, c, got[s][c], want[s][c])
			}
		}
	}
	coord.ShutdownWorkers()
	coord.Close()
	f.Stop()

	// The forked workers' journals are mergeable `<canon>.w<i>` files.
	fresh, err := fleet.CreateJournal(filepath.Join(dir, "c.journal"), meta)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	merged, err := MergeWorkerJournals(fresh, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 2*5 {
		t.Fatalf("merged %d cells from worker journals, want 10", merged)
	}
}

// MergeWorkerJournals ignores repro bundles and other near-miss names
// and tolerates unusable files.
func TestMergeWorkerJournalsFiltering(t *testing.T) {
	dir := t.TempDir()
	canonPath := filepath.Join(dir, "run.journal")
	j, err := fleet.CreateJournal(canonPath, testMeta(1))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// A real worker journal with one cell.
	w0, err := fleet.CreateJournal(WorkerJournalPath(canonPath, 0), testMeta(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendTestCell(w0, 0, 0, "w0"); err != nil {
		t.Fatal(err)
	}
	w0.Close()
	// Distractors sharing the prefix: a repro bundle and a garbage .w file.
	if err := os.WriteFile(canonPath+".w0.s0c1.repro.json", []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(canonPath+".w1", []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}

	merged, err := MergeWorkerJournals(j, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 1 {
		t.Fatalf("merged = %d, want 1 (bundle and garbage skipped)", merged)
	}

	// A worker journal of another run stops the merge: its cells must not
	// resume into this one.
	w2, err := fleet.CreateJournal(WorkerJournalPath(canonPath, 2), testMeta(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendTestCell(w2, 0, 5, "another run's cell"); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	before := j.Replayable()
	if _, err := MergeWorkerJournals(j, t.Logf); err == nil || !strings.Contains(err.Error(), "belongs to another run") {
		t.Fatalf("MergeWorkerJournals over a foreign worker journal = %v, want the refusal", err)
	}
	if j.Replayable() != before {
		t.Fatalf("replayable %d → %d: foreign cells were merged", before, j.Replayable())
	}
}

func appendTestCell(j *fleet.Journal, sweep, cell uint32, name string) error {
	_, err := fleet.MapOpts(fleet.Options{Run: &fleet.Run{Journal: j}}, int(cell)+1,
		func(i, attempt int) (cellValue, error) { return cellValue{Name: name}, nil })
	return err
}

// TestMain doubles as the forked worker binary: with -dist.worker the
// process serves a fixed 2-sweep × 5-cell program instead of running
// tests — the helper-process pattern for exercising real fork/exec.
// -dist.slow switches to slow cells so signal-timing tests can land a
// SIGTERM mid-cell; the cluster key, when the parent set one, arrives
// via HALFBACK_CLUSTER_KEY (never argv).
func TestMain(m *testing.M) {
	for i, arg := range os.Args {
		if arg == "-dist.worker" {
			jpath := ""
			prog := &testProgram{sweeps: 2, cells: 5}
			for k := i + 1; k < len(os.Args); k++ {
				if os.Args[k] == "-dist.journal" && k+1 < len(os.Args) {
					jpath = os.Args[k+1]
				}
				if os.Args[k] == "-dist.slow" {
					prog.delay = 200 * time.Millisecond
				}
			}
			os.Exit(ServeWorker(ServeConfig{
				Addr:        "127.0.0.1:0",
				JournalPath: jpath,
				Key:         ResolveKey(""),
				Start:       prog.start,
				DrainLinger: 50 * time.Millisecond,
				Logf: func(f string, a ...any) {
					fmt.Fprintf(os.Stderr, f+"\n", a...)
				},
			}))
		}
	}
	os.Exit(m.Run())
}
