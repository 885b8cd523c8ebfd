package dist

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist/chaos"
)

// Fabric-level fault tests: the reconnect-before-reassign, fencing and
// graceful-drain contracts, driven through real sockets (with the chaos
// injector where a schedule is needed).

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
	opts.Dial = inj.Dialer()
	opts.RedialAttempts = 8
	opts.RedialBackoff = 20 * time.Millisecond
	opts.ConfigureTimeout = 500 * time.Millisecond
	opts.RunCellTimeout = 400 * time.Millisecond
	opts.HeartbeatEvery = 100 * time.Millisecond
	opts.HeartbeatMisses = 5
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

// Partition-during-merge regression: a connection that dies right after
// Connect (snapshot already merged) forces a redial whose idempotent
// same-Gen re-Configure re-uploads the snapshot — and the second merge
// must change nothing: no duplicate records, no restarted program, no
// reassignments.
func TestPartitionDuringMergeIsIdempotent(t *testing.T) {
	const seed = 33
	meta := testMeta(seed)
	jpath := filepath.Join(t.TempDir(), "w.journal")

	// First incarnation: the worker completes 4 of the 8 cells, then its
	// coordinator "crashes".
	wp1 := &testProgram{sweeps: 1, cells: 4}
	w1, addr1 := startWorker(t, WorkerOptions{JournalPath: jpath, Start: wp1.start})
	canon1 := newCanonJournal(t, meta)
	coord1, err := Connect([]string{addr1}, canon1, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&testProgram{sweeps: 1, cells: 4}).run(context.Background(), seed, coord1.Slots(),
		&fleet.Run{Journal: canon1, Dispatch: coord1}); err != nil {
		t.Fatal(err)
	}
	coord1.Close()
	w1.Stop()

	// Second incarnation against a worker resuming that journal. Its
	// first connection is severed immediately after Connect — after the
	// 4-cell snapshot merged, before any cell ran.
	wp2 := &testProgram{sweeps: 1, cells: 8}
	_, addr2 := startWorker(t, WorkerOptions{JournalPath: jpath, Start: wp2.start})
	dialer := &recordingDialer{}
	canon2 := newCanonJournal(t, meta)
	opts := fastOpts(t)
	opts.Dial = dialer.dial
	opts.RedialAttempts = 4
	coord2, err := Connect([]string{addr2}, canon2, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if got := canon2.Replayable(); got != 4 {
		t.Fatalf("Replayable after upload merge = %d, want 4", got)
	}
	dialer.severFirst()

	prog := &testProgram{sweeps: 1, cells: 8}
	got, err := prog.run(context.Background(), seed, coord2.Slots(),
		&fleet.Run{Journal: canon2, Dispatch: coord2})
	if err != nil {
		t.Fatal(err)
	}
	serial := &testProgram{sweeps: 1, cells: 8}
	want, _ := serial.run(context.Background(), seed, 1, nil)
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	m := coord2.Metrics()
	if m.Redials == 0 {
		t.Fatal("severed connection never triggered a redial")
	}
	if m.Reassignments != 0 {
		t.Fatalf("Reassignments = %d, want 0", m.Reassignments)
	}
	// The canonical journal must hold each of the 8 cells exactly once:
	// the re-merge on reconnect was all skips, not duplicate appends.
	data, err := os.ReadFile(canon2.Path())
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 8 {
		t.Fatalf("canonical journal holds %d records, want exactly 8 (no duplicates from the re-merge)", len(scan.Records))
	}
	if wp2.executions.Load() != 4 {
		t.Fatalf("worker executed %d cells, want only the 4 missing ones", wp2.executions.Load())
	}
}

// Zombie fencing, end to end on one worker: once a newer generation
// configures, the old generation can neither land results (its
// in-flight cell's outcome is withheld and its journal is closed) nor
// make any further call — and every refusal is counted.
func TestZombieGenerationIsFenced(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "w.journal")
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
	w, _ := startWorker(t, WorkerOptions{JournalPath: jpath, Start: start})
	api := &workerAPI{w}
	meta := testMeta(1)

	if err := api.Configure(&ConfigureArgs{Gen: 100, Proto: ProtoVersion, Meta: meta}, &ConfigureReply{}); err != nil {
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

	// The successor arrives. The old session tears down (its journal
	// closes); the zombie's cell is still running.
	if err := api.Configure(&ConfigureArgs{Gen: 200, Proto: ProtoVersion, Meta: meta}, &ConfigureReply{}); err != nil {
		t.Fatal(err)
	}

	// Every gen-100 call is now refused and counted.
	if err := api.Ping(&PingArgs{Gen: 100}, &PingReply{}); err == nil ||
		!strings.Contains(err.Error(), "stale generation") {
		t.Fatalf("zombie Ping err = %v", err)
	}
	if err := api.EndSweep(&EndSweepArgs{Gen: 100, Sweep: 0}, &Empty{}); err == nil {
		t.Fatal("zombie EndSweep accepted")
	}
	if err := api.RunCells(&RunCellsArgs{Gen: 100, Sweep: 0, Cells: []uint32{1}}, &RunCellsReply{}); err == nil {
		t.Fatal("zombie RunCells accepted")
	}
	// An even older incarnation cannot replace the live session either.
	var stale ConfigureReply
	if err := api.Configure(&ConfigureArgs{Gen: 150, Proto: ProtoVersion, Meta: meta}, &stale); err == nil ||
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

	// And it journaled nothing: the old session's journal was closed at
	// replacement, so the record had nowhere durable to land.
	w.Stop()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 {
		t.Fatalf("worker journal holds %d records — a fenced zombie contributed durable state", len(scan.Records))
	}
	// The live reply channel reports the accumulated fence count.
	var ping PingReply
	api2 := &workerAPI{w}
	if err := api2.Ping(&PingArgs{Gen: 200}, &ping); err == nil && ping.Fenced < 3 {
		t.Fatalf("Fenced = %d, want ≥ 3 refusals counted", ping.Fenced)
	}
}

// The ConfigureReply merge policy, through the real RPC path: a worker
// journal carrying duplicate successes, stale failures and superseding
// successes folds into the canonical journal exactly once, and a second
// Configure upload appends nothing new.
func TestConfigureReplyMergeDuplicatesAndStale(t *testing.T) {
	const seed = 35
	meta := testMeta(seed)
	dir := t.TempDir()

	// Canonical journal: success c0, success c1, failure c2, nothing c3.
	canon := newCanonJournal(t, meta)
	fleet.MapOpts(fleet.Options{Run: &fleet.Run{Journal: canon}, //nolint:errcheck // c2's failure is the point
		Label: func(i int) string { return fmt.Sprintf("s0c%d", i) }}, 3,
		func(i, attempt int) (cellValue, error) {
			if i == 2 {
				return cellValue{}, fmt.Errorf("canon-side failure")
			}
			return cellValue{Name: fmt.Sprintf("s0c%d", i)}, nil
		})

	// Worker journal from an older run: duplicate success c0, stale
	// failure c1 (canon has a success), success c2 (supersedes canon's
	// failure), new failure c3.
	wjPath := filepath.Join(dir, "w.journal")
	wj, err := fleet.CreateJournal(wjPath, meta)
	if err != nil {
		t.Fatal(err)
	}
	fleet.MapOpts(fleet.Options{Run: &fleet.Run{Journal: wj}, //nolint:errcheck // failures are the fixture
		Label: func(i int) string { return fmt.Sprintf("s0c%d", i) }}, 4,
		func(i, attempt int) (cellValue, error) {
			if i == 1 || i == 3 {
				return cellValue{}, fmt.Errorf("worker-side failure")
			}
			return cellValue{Name: fmt.Sprintf("s0c%d", i)}, nil
		})
	wj.Close()

	// Connect: the worker resumes that journal and uploads its snapshot
	// in ConfigureReply; Connect merges it.
	_, addr := startWorker(t, WorkerOptions{JournalPath: wjPath,
		Start: (&testProgram{sweeps: 1, cells: 4}).start})
	coord, err := Connect([]string{addr}, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()

	// Post-merge canon: c0 succ (dup skipped), c1 succ (stale failure
	// skipped), c2 succ (failure superseded), c3 fail (applied).
	if got := canon.Replayable(); got != 3 {
		t.Fatalf("Replayable = %d, want 3 successes", got)
	}
	scanCanon := func() *fleet.JournalScan {
		t.Helper()
		data, err := os.ReadFile(canon.Path())
		if err != nil {
			t.Fatal(err)
		}
		scan, err := fleet.ScanJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		return scan
	}
	// Between barriers merged records may still be in memory: the file is
	// read once the journal is closed.
	if err := canon.Close(); err != nil {
		t.Fatal(err)
	}
	scan := scanCanon()
	// Physical: 3 original + superseding c2 + new c3 failure = 5.
	if len(scan.Records) != 5 {
		t.Fatalf("%d physical records after merge, want 5", len(scan.Records))
	}
	can := scan.Canonical()
	if len(can) != 4 {
		t.Fatalf("Canonical = %d cells, want 4", len(can))
	}
	for i, wantFail := range []bool{false, false, false, true} {
		if gotFail := can[i].Error != ""; gotFail != wantFail {
			t.Fatalf("cell %d: failure=%v, want %v (record %+v)", i, gotFail, wantFail, can[i])
		}
	}

	// A second coordinator incarnation resumes the canonical journal and
	// is uploaded the same snapshot; the merge must be pure skips — zero
	// new records.
	canon2, err := fleet.ResumeJournal(canon.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer canon2.Close()
	coord2, err := Connect([]string{addr}, canon2, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	coord2.Close()
	if err := canon2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(scanCanon().Records); n != 5 {
		t.Fatalf("re-upload grew the journal to %d records — merge not idempotent", n)
	}
}

// In-process drain: in-flight cells finish and journal, new work and
// sessions are refused, Ping flips Running=false, and the worker exits
// on its own.
func TestDrainFinishesInFlightAndRefusesNewWork(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "w.journal")
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
	w, _ := startWorker(t, WorkerOptions{JournalPath: jpath, Start: start,
		DrainLinger: 2 * time.Second})
	api := &workerAPI{w}
	meta := testMeta(1)
	if err := api.Configure(&ConfigureArgs{Gen: 1, Proto: ProtoVersion, Meta: meta}, &ConfigureReply{}); err != nil {
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
	// Draining is observable immediately: Running=false, new cells and
	// sessions refused — while the in-flight cell is still running.
	var ping PingReply
	for {
		if err := api.Ping(&PingArgs{Gen: 1}, &ping); err != nil {
			t.Fatalf("Ping during drain: %v", err)
		}
		if !ping.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Ping never reported Running=false during drain")
		}
		time.Sleep(time.Millisecond)
	}
	if err := api.RunCells(&RunCellsArgs{Gen: 1, Sweep: 0, Cells: []uint32{1}}, &RunCellsReply{}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("RunCells during drain err = %v, want draining refusal", err)
	}
	if err := api.Configure(&ConfigureArgs{Gen: 2, Proto: ProtoVersion, Meta: meta}, &ConfigureReply{}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("Configure during drain err = %v, want draining refusal", err)
	}

	// The in-flight cell finishes, returns a real outcome, and lands in
	// the worker journal before the process exits.
	close(release)
	if err := <-cellDone; err != nil {
		t.Fatalf("in-flight cell failed during drain: %v", err)
	}
	select {
	case <-w.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never stopped")
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 {
		t.Fatalf("worker journal holds %d records, want the drained in-flight cell", len(scan.Records))
	}
}

// Process-level drain: SIGTERM to a forked worker finishes in-flight
// cells (journaled durably), exits 130, and the run still completes
// with serial bytes.
func TestForkedWorkerSIGTERMDrainsAndExits130(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "c.journal.w0")
	f, err := Fork(exe, 1, func(i int) []string {
		return []string{"-dist.worker", "-dist.slow", "-dist.journal", jpath}
	})
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
	// Whatever was in flight at the signal finished and journaled.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) == 0 {
		t.Fatal("drained worker journaled nothing — in-flight cells were dropped")
	}
	t.Logf("drained worker journaled %d cells before exit", len(scan.Records))
}
