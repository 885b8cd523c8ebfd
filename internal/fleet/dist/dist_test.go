package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
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
		_, addr := startWorker(t, WorkerOptions{Start: wp.start})
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

// recordServer runs every cell of every sweep a program offers and keeps
// the outcomes: the bytes a worker sends for them.
type recordServer map[[2]uint32]*fleet.CellOutcome

func (r recordServer) ServeSweep(sweep uint32, n int, run func(cell uint32) *fleet.CellOutcome) error {
	for c := uint32(0); c < uint32(n); c++ {
		r[[2]uint32{sweep, c}] = run(c)
	}
	return nil
}

// A worker's program registers every sweep and runs on, and nothing
// tells it that a sweep has ended: a coordinator that asks for sweep 2
// before sweep 0, and never calls SweepDone, gets both served.
func TestWorkerServesSweepsInAnyOrder(t *testing.T) {
	const seed = 5
	want := recordServer{}
	if _, err := (&testProgram{sweeps: 3, cells: 2}).run(context.Background(), seed, 1, &fleet.Run{Serve: want}); err != nil {
		t.Fatal(err)
	}
	_, addr := startWorker(t, WorkerOptions{Start: (&testProgram{sweeps: 3, cells: 2}).start, RegisterWait: time.Second})
	coord, err := Connect([]string{addr}, nil, testMeta(seed), fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for _, at := range [][2]uint32{{2, 1}, {0, 0}} {
		res, err := coord.DispatchCell(at[0], at[1], "")
		if err != nil {
			t.Fatalf("sweep %d cell %d: %v", at[0], at[1], err)
		}
		if res.Failed || !bytes.Equal(res.Data, want[at].Data) {
			t.Fatalf("sweep %d cell %d: outcome %+v, want %+v", at[0], at[1], res, want[at])
		}
	}
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
// program keeps running; a new generation replaces the session.
func TestConfigureGenerations(t *testing.T) {
	var starts atomic.Int32
	start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		starts.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	w, _ := startWorker(t, WorkerOptions{Start: start})

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

	api := &workerAPI{w: w}
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
// reaps them.
func TestForkLaunchesAndReapsWorkers(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fork(exe, 2, func(i int) []string { return []string{"-dist.worker"} })
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
	if n := canon.Replayable(); n != 2*5 {
		t.Fatalf("canonical journal holds %d cells, want all 10", n)
	}
	coord.ShutdownWorkers()
	coord.Close()
	f.Stop()
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
			prog := &testProgram{sweeps: 2, cells: 5}
			if slices.Contains(os.Args[i+1:], "-dist.slow") {
				prog.delay = 200 * time.Millisecond
			}
			os.Exit(ServeWorker("127.0.0.1:0", WorkerOptions{
				Key:   ResolveKey(""),
				Start: prog.start,
				Logf: func(f string, a ...any) {
					fmt.Fprintf(os.Stderr, f+"\n", a...)
				},
			}))
		}
	}
	os.Exit(m.Run())
}
