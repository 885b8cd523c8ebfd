package dist

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist/chaos"
)

// Fabric-level fault tests: the redial backoff, and the
// reconnect-before-reassign, fencing and graceful-drain contracts driven
// through real sockets (with the chaos injector where a schedule is
// needed).

// A worker behind a healing one-way partition is redialed and kept —
// zero reassignments, zero local fallback, identical bytes. This is the
// tentpole's core claim: transient faults cost redials, not work.
func TestPartitionedWorkerRedialedNotReassigned(t *testing.T) {
	const seed = 31
	serial := &testProgram{sweeps: 1, cells: 16}
	want, err := serial.run(context.Background(), seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	meta := testMeta(seed)
	wp := &testProgram{sweeps: 1, cells: 16, delay: 5 * time.Millisecond}
	_, addr := startWorker(t, WorkerOptions{Start: wp.start})

	// Every pre-heal connection partitions outbound once ~600 bytes have
	// moved: requests silently vanish, so the stream is broken in the
	// one way only a reply deadline can detect — the coordinator must
	// notice, tear the connection down and redial. (An inbound partition
	// would be too easy: kernel buffers preserve the stream across the
	// heal and reads simply resume.)
	inj := chaos.New(seed, chaos.Config{
		PartitionOutProb: 1,
		PartitionAfter:   600,
		HealAt:           300 * time.Millisecond,
	})
	canon := newCanonJournal(t, meta)
	opts := fastOpts(t)
	opts.dial = inj.Dialer()
	opts.redialAttempts = 8
	opts.redialBackoff = 20 * time.Millisecond
	opts.configureTimeout = 500 * time.Millisecond
	opts.runCellTimeout = 400 * time.Millisecond
	opts.heartbeatEvery = 100 * time.Millisecond
	opts.heartbeatMisses = 5
	coord, err := Connect([]string{addr}, canon, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	coordProg := &testProgram{sweeps: 1, cells: 16}
	got, err := coordProg.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d through the partition = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	if n := coordProg.executions.Load(); n != 0 {
		t.Fatalf("%d cells fell back to the coordinator, want 0 — the worker should have been redialed, not abandoned", n)
	}
	if live := coord.Live(); live != 1 {
		t.Fatalf("Live = %d, want the partitioned worker still alive", live)
	}
	m := coord.Metrics()
	if m.Reassignments != 0 {
		t.Fatalf("Reassignments = %d, want 0 (reconnect-before-reassign)", m.Reassignments)
	}
	if m.Redials == 0 {
		t.Fatal("Redials = 0 — the partition was never even noticed")
	}
	t.Logf("metrics: %s", m)
}

// Property sweep over the redial backoff: for a grid of bases and
// attempt numbers it must be monotone non-decreasing, bounded by 16× the
// base (saturating at math.MaxInt64), zero only where documented, and
// overflow-safe.
func TestBackoffAtProperties(t *testing.T) {
	bases := []time.Duration{
		0, -time.Second, time.Nanosecond, time.Millisecond, 200 * time.Millisecond, time.Second,
		math.MaxInt64 / 16, math.MaxInt64/16 + 1, math.MaxInt64 / 2, math.MaxInt64, // overflow bait
	}
	for _, base := range bases {
		limit := time.Duration(math.MaxInt64)
		if base <= math.MaxInt64/16 {
			limit = 16 * base
		}
		prev := time.Duration(0)
		for attempt := -1; attempt <= 70; attempt++ { // past 63 doublings
			d := redialBackoff(base, attempt)
			switch {
			case d < 0:
				t.Fatalf("base %v attempt %d: negative backoff %v", base, attempt, d)
			case (attempt < 1 || base <= 0) && d != 0:
				t.Fatalf("base %v attempt %d: sleeps %v where no sleep is due", base, attempt, d)
			case base > 0 && attempt >= 1 && (d < base || d > limit):
				t.Fatalf("base %v attempt %d: %v outside [base, %v]", base, attempt, d, limit)
			case d < prev:
				t.Fatalf("base %v: not monotone: attempt %d %v < %v", base, attempt, d, prev)
			}
			prev = d
		}
	}
}

func TestBackoffAtSchedule(t *testing.T) {
	const ms = time.Millisecond
	want := []time.Duration{0, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 160 * ms}
	for attempt, w := range want {
		if got := redialBackoff(10*ms, attempt); got != w {
			t.Fatalf("redialBackoff(10ms, %d) = %v, want %v", attempt, got, w)
		}
	}
}

// recordingDialer dials plainly but keeps every connection so the test
// can sever a specific one mid-run.
type recordingDialer struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (d *recordingDialer) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conns = append(d.conns, conn)
	d.mu.Unlock()
	return conn, nil
}

func (d *recordingDialer) severFirst() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns[0].Close()
}

// A connection that dies right after Connect, before any cell ran,
// forces a redial whose same-Gen re-Configure changes nothing: the
// program is not restarted, nothing is reassigned, and every cell runs
// and is journaled exactly once.
func TestSeveredConnectionRedialsIdempotently(t *testing.T) {
	const seed, cells = 33, 8
	meta := testMeta(seed)
	wp := &testProgram{sweeps: 1, cells: cells}
	var starts atomic.Int32
	_, addr := startWorker(t, WorkerOptions{Start: func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		starts.Add(1)
		return wp.start(ctx, m, run)
	}})
	dialer := &recordingDialer{}
	canon := newCanonJournal(t, meta)
	opts := fastOpts(t)
	opts.dial = dialer.dial
	opts.redialAttempts = 4
	coord, err := Connect([]string{addr}, canon, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	dialer.severFirst()

	prog := &testProgram{sweeps: 1, cells: cells}
	got, err := prog.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&testProgram{sweeps: 1, cells: cells}).run(context.Background(), seed, 1, nil)
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	m := coord.Metrics()
	if m.Redials == 0 {
		t.Fatal("severed connection never triggered a redial")
	}
	if m.Reassignments != 0 {
		t.Fatalf("Reassignments = %d, want 0", m.Reassignments)
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("the worker program started %d times, want once: a same-Gen Configure restarted it", n)
	}
	if n := wp.executions.Load(); n != cells {
		t.Fatalf("worker executed %d cells, want each of the %d once", n, cells)
	}
	for key, n := range journalCells(t, canon) {
		if n != 1 {
			t.Fatalf("cell %v journaled %d times, want once", key, n)
		}
	}
}

// Zombie fencing, end to end on one worker: once a newer generation
// configures, the old generation can neither land results (its
// in-flight cell's outcome is withheld) nor make any further call — and
// every refusal is counted.
func TestZombieGenerationIsFenced(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Run: run,
			Label: func(i int) string { return fmt.Sprintf("s0c%d", i) }}, 2,
			func(i, attempt int) (cellValue, error) {
				started.Add(1)
				select {
				case <-release:
				case <-ctx.Done():
				}
				return cellValue{Name: fmt.Sprintf("s0c%d", i), Value: float64(i)}, nil
			})
		return err
	}
	w, _ := startWorker(t, WorkerOptions{Start: start})
	api := &workerAPI{w: w}
	meta := testMeta(1)

	if err := api.Configure(&ConfigureArgs{Gen: 100, Proto: protoVersion, Meta: meta}, &ConfigureReply{}); err != nil {
		t.Fatal(err)
	}
	// A gen-100 cell goes in flight and blocks inside its closure.
	cellErr := make(chan error, 1)
	go func() {
		cellErr <- api.RunCells(&RunCellsArgs{Gen: 100, Sweep: 0, Cells: []uint32{0}}, &RunCellsReply{})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started.Load() == 0 {
		t.Fatal("gen-100 cell never started")
	}

	// The successor arrives. The old session tears down; the zombie's
	// cell is still running.
	if err := api.Configure(&ConfigureArgs{Gen: 200, Proto: protoVersion, Meta: meta}, &ConfigureReply{}); err != nil {
		t.Fatal(err)
	}

	// Every gen-100 call is now refused and counted.
	if err := api.Ping(&PingArgs{Gen: 100}, &PingReply{}); err == nil ||
		!strings.Contains(err.Error(), "stale generation") {
		t.Fatalf("zombie Ping err = %v", err)
	}
	if err := api.RunCells(&RunCellsArgs{Gen: 100, Sweep: 0, Cells: []uint32{1}}, &RunCellsReply{}); err == nil {
		t.Fatal("zombie RunCells accepted")
	}
	// An even older incarnation cannot replace the live session either.
	var stale ConfigureReply
	if err := api.Configure(&ConfigureArgs{Gen: 150, Proto: protoVersion, Meta: meta}, &stale); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("stale Configure err = %v", err)
	}
	if stale.Fenced == 0 {
		t.Fatal("stale Configure reply does not report the fence counter")
	}

	// Release the zombie's in-flight cell: its result must be withheld,
	// not returned as a live outcome.
	close(release)
	select {
	case err := <-cellErr:
		if err == nil || !strings.Contains(err.Error(), "fenced mid-lease") {
			t.Fatalf("zombie in-flight cell err = %v, want fenced mid-lease", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("zombie cell never returned")
	}

	// The live reply channel reports the accumulated fence count.
	var ping PingReply
	api2 := &workerAPI{w: w}
	if err := api2.Ping(&PingArgs{Gen: 200}, &ping); err == nil && ping.Fenced < 3 {
		t.Fatalf("Fenced = %d, want ≥ 3 refusals counted", ping.Fenced)
	}
}

// In-process drain: in-flight cells finish and reply, new work and
// sessions are refused, and the worker exits on its own.
func TestDrainFinishesInFlightAndRefusesNewWork(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Run: run,
			Label: func(i int) string { return fmt.Sprintf("s0c%d", i) }}, 2,
			func(i, attempt int) (cellValue, error) {
				started.Add(1)
				select {
				case <-release:
				case <-ctx.Done():
				}
				return cellValue{Name: fmt.Sprintf("s0c%d", i), Value: float64(i)}, nil
			})
		return err
	}
	w, _ := startWorker(t, WorkerOptions{Start: start})
	api := &workerAPI{w: w}
	meta := testMeta(1)
	if err := api.Configure(&ConfigureArgs{Gen: 1, Proto: protoVersion, Meta: meta}, &ConfigureReply{}); err != nil {
		t.Fatal(err)
	}
	cellDone := make(chan error, 1)
	var reply RunCellsReply
	go func() {
		cellDone <- api.RunCells(&RunCellsArgs{Gen: 1, Sweep: 0, Cells: []uint32{0}}, &reply)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started.Load() == 0 {
		t.Fatal("cell never started")
	}

	go w.Drain()
	// Once draining, new cells and sessions are refused — while the
	// in-flight cell is still running.
	for !w.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	if err := api.RunCells(&RunCellsArgs{Gen: 1, Sweep: 0, Cells: []uint32{1}}, &RunCellsReply{}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("RunCells during drain err = %v, want draining refusal", err)
	}
	if err := api.Configure(&ConfigureArgs{Gen: 2, Proto: protoVersion, Meta: meta}, &ConfigureReply{}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("Configure during drain err = %v, want draining refusal", err)
	}

	// The in-flight cell finishes and returns a real outcome before the
	// worker exits.
	close(release)
	if err := <-cellDone; err != nil {
		t.Fatalf("in-flight cell failed during drain: %v", err)
	}
	if len(reply.Outcomes) != 1 || reply.Outcomes[0].Failed || len(reply.Outcomes[0].Data) == 0 {
		t.Fatalf("drained lease replied %+v, want the in-flight cell's result", reply.Outcomes)
	}
	select {
	case <-w.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never stopped")
	}
}

// Process-level drain: SIGTERM to a forked worker finishes in-flight
// cells and delivers them, exits 130, and the run still completes with
// serial bytes.
func TestForkedWorkerSIGTERMDrainsAndExits130(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fork(exe, 1, func(i int) []string { return []string{"-dist.worker", "-dist.slow"} })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const seed = 8
	meta := testMeta(seed)
	canon := newCanonJournal(t, meta)
	coord, err := Connect(f.Addrs, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	prog := &testProgram{sweeps: 2, cells: 5}
	runDone := make(chan error, 1)
	var got [][]cellValue
	go func() {
		var err error
		got, err = prog.run(context.Background(), seed, coord.Slots(),
			&fleet.Run{Journal: canon, Dispatch: coord})
		runDone <- err
	}()
	// Land the SIGTERM while slow cells (200ms each) are in flight.
	time.Sleep(150 * time.Millisecond)
	if err := f.Signal(0, syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("run never completed after worker drain")
	}
	serial := &testProgram{sweeps: 2, cells: 5}
	want, _ := serial.run(context.Background(), seed, 1, nil)
	for s := range want {
		for c := range want[s] {
			if got[s][c] != want[s][c] {
				t.Fatalf("sweep %d cell %d = %+v, want %+v", s, c, got[s][c], want[s][c])
			}
		}
	}
	if code := f.Wait(0); code != 130 {
		t.Fatalf("drained worker exit code = %d, want 130", code)
	}
	// Whatever was in flight at the signal finished on the worker and
	// came back; only the rest fell back to the coordinator.
	local := prog.executions.Load()
	if local >= 2*5 {
		t.Fatal("the coordinator ran every cell itself — the drained worker's in-flight cells were dropped")
	}
	t.Logf("drained worker delivered %d cells before exit", 2*5-local)
}
