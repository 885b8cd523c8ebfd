package dist

import (
	"context"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halfback/internal/fleet"
)

// feed runs the sizer through a sequence of leases whose cells each take
// perCell plus a fixed round trip, returning the size it chose for each.
func feed(s *leaseSizer, leases int, perCell, roundTrip time.Duration, queued, liveSlots int) []int {
	var sizes []int
	for i := 0; i < leases; i++ {
		n := s.size(queued, liveSlots)
		sizes = append(sizes, n)
		s.observe(time.Duration(n)*perCell+roundTrip, n)
	}
	return sizes
}

// The sizing rule, with injected durations: a cell slower than the
// target keeps one-cell leases, cheap cells reach the cap within a
// handful of leases, no lease exceeds an even share of the queue, and
// cells turning slow mid-sweep shrink the very next lease.
func TestLeaseSizer(t *testing.T) {
	const rtt = 200 * time.Microsecond

	var slow leaseSizer
	for i, n := range feed(&slow, 20, 10*time.Millisecond, rtt, 10_000, 8) {
		if n != 1 {
			t.Fatalf("10 ms cells: lease %d carries %d cells, want 1 (a cell slower than the target keeps one-cell leases)", i, n)
		}
	}
	var atTarget leaseSizer
	for i, n := range feed(&atTarget, 5, leaseTarget+time.Millisecond, 0, 10_000, 8) {
		if n != 1 {
			t.Fatalf("cells just over the target: lease %d carries %d cells, want 1", i, n)
		}
	}

	var fast leaseSizer
	sizes := feed(&fast, 6, 50*time.Microsecond, rtt, 10_000, 8)
	if sizes[0] != 1 {
		t.Fatalf("first lease carries %d cells, want 1 (nothing observed yet)", sizes[0])
	}
	if sizes[len(sizes)-1] != leaseCap {
		t.Fatalf("50 µs cells: sizes %v never reached the cap %d within %d leases", sizes, leaseCap, len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] || sizes[i] > leaseCap {
			t.Fatalf("50 µs cells: sizes %v are not monotone within [1, %d]", sizes, leaseCap)
		}
	}

	// Never more than an even share of what is queued, never less than one.
	for _, tc := range []struct{ queued, slots, want int }{
		{1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {80, 8, 10}, {10_000, 8, leaseCap}, {3, 1, 3},
	} {
		if got := fast.size(tc.queued, tc.slots); got != tc.want {
			t.Errorf("size(queued=%d, slots=%d) = %d, want %d", tc.queued, tc.slots, got, tc.want)
		}
	}

	// Cells turn slow mid-sweep: one lease pays for the misjudgement, the
	// next is back to one cell — and stays there.
	fast.observe(leaseCap*10*time.Millisecond, leaseCap)
	for i, n := range feed(&fast, 5, 10*time.Millisecond, rtt, 10_000, 8) {
		if n != 1 {
			t.Fatalf("after cells turned slow: lease %d carries %d cells, want 1", i, n)
		}
	}
	// And cheap again: growth resumes over a few leases, not at once.
	sizes = feed(&fast, 12, 50*time.Microsecond, rtt, 10_000, 8)
	if sizes[0] != 1 || sizes[len(sizes)-1] != leaseCap {
		t.Fatalf("after cells turned cheap again: sizes %v, want growth from 1 back to the cap", sizes)
	}
}

// leaseCounts snapshots the coordinator's lease-size histogram: single-
// cell leases and leases of two or more.
func leaseCounts(c *Coordinator) (single, multi uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for class, n := range c.leaseSizes {
		if class <= 1 {
			single += n
		} else {
			multi += n
		}
	}
	return single, multi
}

// journalCells scans the canonical journal's file and returns how many
// success records each cell has.
func journalCells(t *testing.T, j *fleet.Journal) map[[2]uint32]int {
	t.Helper()
	data, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil || scan.TailErr != nil {
		t.Fatalf("canonical journal does not scan clean: %v / %v", err, scan.TailErr)
	}
	cells := make(map[[2]uint32]int)
	for _, rec := range scan.Records {
		if rec.Data != nil {
			cells[[2]uint32{rec.Sweep, rec.Cell}]++
		}
	}
	return cells
}

// Cheap cells travel many per round trip, and the run is still the
// serial run: same values, every cell executed remotely exactly once,
// every cell journaled exactly once.
func TestCheapCellsShareLeases(t *testing.T) {
	const seed, cells = 11, 600
	want, err := (&testProgram{sweeps: 1, cells: cells}).run(context.Background(), seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta(seed)
	var progs []*testProgram
	var addrs []string
	for i := 0; i < 2; i++ {
		wp := &testProgram{sweeps: 1, cells: cells}
		progs = append(progs, wp)
		_, addr := startWorker(t, WorkerOptions{Start: wp.start})
		addrs = append(addrs, addr)
	}
	canon := newCanonJournal(t, meta)
	coord, err := Connect(addrs, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	coordProg := &testProgram{sweeps: 1, cells: cells}
	got, err := coordProg.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	if n := coordProg.executions.Load(); n != 0 {
		t.Fatalf("%d cells executed on the coordinator, want 0", n)
	}
	if n := progs[0].executions.Load() + progs[1].executions.Load(); n != cells {
		t.Fatalf("%d remote executions, want %d (each cell once)", n, cells)
	}
	single, multi := leaseCounts(coord)
	if multi == 0 || single+multi >= cells/2 {
		t.Fatalf("%d one-cell and %d multi-cell leases for %d microsecond cells — leases did not form", single, multi, cells)
	}
	t.Logf("%d cells in %d leases (%d of one cell)", cells, single+multi, single)
	journaled := journalCells(t, canon)
	if len(journaled) != cells {
		t.Fatalf("%d cells journaled, want %d", len(journaled), cells)
	}
	for key, n := range journaled {
		if n != 1 {
			t.Fatalf("cell %v journaled %d times, want once", key, n)
		}
	}
	if m := coord.Metrics(); m != (Metrics{}) {
		t.Fatalf("clean run metrics = %s, want all zero", m)
	}
}

// A worker stopped in the middle of a multi-cell lease: every cell of the
// dead lease is leased again to the survivor and resolved exactly once
// in the canonical journal, and the output is the serial run's.
func TestWorkerDeathMidLeaseRequeuesItsCells(t *testing.T) {
	const seed, cells, warm = 13, 600, 40
	want, err := (&testProgram{sweeps: 1, cells: cells}).run(context.Background(), seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta(seed)

	// The victim runs its first `warm` cells instantly — long enough for
	// its leases to grow — then every further cell hangs until the
	// session dies, so it is stopped while holding multi-cell leases.
	// The survivor's cells wait for that hang: were it free to run, it
	// could take the whole sweep before the victim ever got past `warm`,
	// and nothing would die.
	var victimRan atomic.Int32
	hung := make(chan struct{})
	var hungOnce sync.Once
	prog := &testProgram{sweeps: 1, cells: cells}
	startAfter := func(gate func(ctx context.Context)) StartFunc {
		return func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
			_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Run: run}, cells,
				func(i, attempt int) (cellValue, error) {
					gate(ctx)
					return prog.value(m.Seed, 0, i), nil
				})
			return err
		}
	}
	victim, victimAddr := startWorker(t, WorkerOptions{Start: startAfter(func(ctx context.Context) {
		if victimRan.Add(1) > warm {
			hungOnce.Do(func() { close(hung) })
			<-ctx.Done()
		}
	})})
	_, survivorAddr := startWorker(t, WorkerOptions{Start: startAfter(func(ctx context.Context) {
		select {
		case <-hung:
		case <-ctx.Done():
		}
	})})

	canon := newCanonJournal(t, meta)
	coord, err := Connect([]string{victimAddr, survivorAddr}, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	go func() {
		<-hung
		victim.Stop()
	}()

	coordProg := &testProgram{sweeps: 1, cells: cells}
	got, err := coordProg.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d after the lease died: %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	if n := coordProg.executions.Load(); n != 0 {
		t.Fatalf("%d cells fell back to the coordinator with a survivor alive", n)
	}
	if m := coord.Metrics(); m.Reassignments == 0 {
		t.Fatalf("metrics %s: a worker died mid-lease but nothing was reassigned", m)
	}
	if _, multi := leaseCounts(coord); multi == 0 {
		t.Fatal("no multi-cell lease formed — the test did not exercise a dead multi-cell lease")
	}
	if live := coord.Live(); live != 1 {
		t.Fatalf("Live = %d, want 1", live)
	}
	journaled := journalCells(t, canon)
	if len(journaled) != cells {
		t.Fatalf("%d cells journaled, want %d", len(journaled), cells)
	}
	for key, n := range journaled {
		if n != 1 {
			t.Fatalf("cell %v journaled %d times, want exactly once", key, n)
		}
	}
}

// On resume the cells the canonical journal already holds replay before
// dispatch, so leases carry only what is unresolved: a sweep whose first
// third is journaled sends exactly the other two thirds.
func TestResumedSweepLeasesOnlyUnresolvedCells(t *testing.T) {
	const seed, cells, done = 17, 90, 30
	meta := testMeta(seed)
	prog := &testProgram{sweeps: 1, cells: cells}
	canon := newCanonJournal(t, meta)
	// An earlier incarnation completed cells [0, done) and failed the rest.
	_, _ = fleet.MapOpts(fleet.Options{Run: &fleet.Run{Journal: canon}}, cells,
		func(i, attempt int) (cellValue, error) {
			if i >= done {
				return cellValue{}, fmt.Errorf("interrupted")
			}
			return prog.value(seed, 0, i), nil
		})
	if got := canon.Replayable(); got != done {
		t.Fatalf("Replayable = %d, want %d", got, done)
	}

	wp := &testProgram{sweeps: 1, cells: cells}
	_, addr := startWorker(t, WorkerOptions{Start: wp.start})
	coord, err := Connect([]string{addr}, canon, meta, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordProg := &testProgram{sweeps: 1, cells: cells}
	got, err := coordProg.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		if got[0][c] != prog.value(seed, 0, c) {
			t.Fatalf("cell %d = %+v", c, got[0][c])
		}
	}
	if n := wp.executions.Load(); n != cells-done {
		t.Fatalf("worker executed %d cells, want only the %d unresolved ones", n, cells-done)
	}
	if n := coordProg.executions.Load(); n != 0 {
		t.Fatalf("%d cells executed on the coordinator", n)
	}
}

// The coordinator's half of a graceful interrupt: after the sweep is
// cancelled and the coordinator drained, the lease in flight finishes
// and merges, and the cells still queued behind it — dispatched by the
// fleet, started nowhere — are reported cancelled: neither leased nor
// executed locally.
func TestDrainFailsQueuedCellsAndFinishesInFlightLease(t *testing.T) {
	const cells = 6
	release := make(chan struct{})
	var started atomic.Int32
	start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
		_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Run: run}, cells,
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
	_, addr := startWorker(t, WorkerOptions{Start: start})
	meta := testMeta(1)
	canon := newCanonJournal(t, meta)
	opts := fastOpts(t)
	opts.SlotsPerWorker = 1
	coord, err := Connect([]string{addr}, canon, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var local atomic.Int32
	type result struct {
		out []cellValue
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Workers: coord.Slots(),
			Run: &fleet.Run{Journal: canon, Dispatch: coord}}, cells,
			func(i, attempt int) (cellValue, error) {
				local.Add(1)
				return cellValue{}, nil
			})
		done <- result{out, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started.Load() != 1 {
		t.Fatalf("%d cells started on a one-slot worker, want the first lease's one cell", started.Load())
	}
	cancel()
	coord.Drain()
	close(release)
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the drained sweep never returned")
	}
	if !slices.ContainsFunc(fleet.JobErrors(res.err), func(je *fleet.JobError) bool { return je.Class() == fleet.ClassCanceled }) {
		t.Fatalf("sweep err = %v, want an interrupted sweep", res.err)
	}
	if n := len(fleet.JobErrors(res.err)); n != cells-1 {
		t.Fatalf("%d cells reported cancelled, want %d (all but the one in flight)", n, cells-1)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d cells ran on the worker, want only the in-flight one", n)
	}
	if n := local.Load(); n != 0 {
		t.Fatalf("%d queued cells fell back to local execution during a drain", n)
	}
	if got := canon.Replayable(); got != 1 {
		t.Fatalf("Replayable = %d, want the in-flight cell merged", got)
	}
}

// A v7 build (the cells of Figs. 3 and 15 travel as gob) meets a v8
// build (every cell is a fleet.Row), either way round: the session is
// refused with both versions named.
func TestV7PeerMeetsV8Peer(t *testing.T) {
	if protoVersion != 8 {
		t.Fatalf("protoVersion = %d; this test pins the v7→v8 boundary", protoVersion)
	}
	// A v7 worker's hello reaches this coordinator.
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		writeFrame(server, frameHello, []byte{0, 7, 0})
	}()
	err := clientHandshake(client, nil)
	if err == nil || !strings.Contains(err.Error(), "v7") || !strings.Contains(err.Error(), "v8") {
		t.Fatalf("v7 worker hello: err = %v, want a refusal naming v7 and v8", err)
	}
	// A v7 coordinator's Configure reaches this worker.
	w, _ := startWorker(t, WorkerOptions{Start: (&testProgram{sweeps: 1, cells: 1}).start})
	err = (&workerAPI{w: w}).Configure(&ConfigureArgs{Gen: 1, Proto: 7, Meta: testMeta(1)}, &ConfigureReply{})
	if err == nil || !strings.Contains(err.Error(), "v7") || !strings.Contains(err.Error(), "v8") {
		t.Fatalf("v7 Configure: err = %v, want a refusal naming v7 and v8", err)
	}
}

// A Shutdown's reply reaches the coordinator, and the worker stops only
// once the connection that asked for it closes.
func TestShutdownRepliesThenStopsOnDisconnect(t *testing.T) {
	w, addr := startWorker(t, WorkerOptions{Start: (&testProgram{sweeps: 1, cells: 1}).start})
	var logMu sync.Mutex
	var logged []string
	opts := fastOpts(t)
	opts.Logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	coord, err := Connect([]string{addr}, nil, testMeta(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	coord.ShutdownWorkers()
	logMu.Lock()
	for _, line := range logged {
		if strings.Contains(line, "undelivered") {
			t.Errorf("the Shutdown reply did not arrive: %q", line)
		}
	}
	logMu.Unlock()
	select {
	case <-w.Done():
		t.Fatal("the worker stopped while the coordinator's connection was open")
	case <-time.After(100 * time.Millisecond):
	}
	coord.Close()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the worker did not stop once the coordinator's connection closed")
	}
}

// swallowConn passes traffic through until told to swallow: from then on
// writes report success and go nowhere — a peer that accepts and never
// answers.
type swallowConn struct {
	net.Conn
	swallow *atomic.Bool
}

func (c swallowConn) Write(p []byte) (int, error) {
	if c.swallow.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// ShutdownWorkers is deadlined like every other RPC: a worker that never
// answers costs dialTimeout and a log line, not the run.
func TestShutdownWorkersDoesNotWedgeOnMuteWorker(t *testing.T) {
	wp := &testProgram{sweeps: 1, cells: 1}
	_, addr := startWorker(t, WorkerOptions{Start: wp.start})
	var swallow atomic.Bool
	var logMu sync.Mutex
	var logged []string
	opts := fastOpts(t)
	opts.heartbeatEvery = time.Hour // keep the heartbeat out of the way
	opts.dialTimeout = 200 * time.Millisecond
	opts.dial = func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return swallowConn{conn, &swallow}, nil
	}
	opts.Logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	coord, err := Connect([]string{addr}, nil, testMeta(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	swallow.Store(true)
	done := make(chan struct{})
	go func() {
		coord.ShutdownWorkers()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ShutdownWorkers wedged on a worker that never answers")
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "Shutdown") && strings.Contains(line, "undelivered") {
			return
		}
	}
	t.Fatalf("undelivered shutdown was not logged; log: %q", logged)
}

// Fork starts its workers together and awaits them together; a child
// that never announces an address fails the whole fork and is reaped.
func TestForkFailureReapsEveryChild(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Child 1 lists the tests matching nothing: it exits at once without
	// ever printing a listen line.
	_, err = Fork(exe, 2, func(i int) []string {
		if i == 1 {
			return []string{"-test.list", "^$"}
		}
		return []string{"-dist.worker"}
	})
	if err == nil || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("Fork err = %v, want worker 1's failure", err)
	}
}

// BenchmarkLeaseRoundTrip is the dist layer's microbenchmark: no-op
// cells through an in-process worker on loopback, one slot, a fixed
// number of cells per lease. ns/cell is what one cell pays for the
// fabric; at one cell per lease it is the round trip itself.
func BenchmarkLeaseRoundTrip(b *testing.B) {
	for _, perLease := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("cells=%d", perLease), func(b *testing.B) {
			n := b.N * perLease
			ready := make(chan struct{})
			start := func(ctx context.Context, m fleet.JournalMeta, run *fleet.Run) error {
				close(ready)
				_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Run: run}, n,
					func(i, attempt int) (cellValue, error) { return cellValue{Value: float64(i)}, nil })
				return err
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			w := NewWorker(WorkerOptions{Start: start})
			go w.Serve(lis)
			defer w.Stop()
			coord, err := Connect([]string{lis.Addr().String()}, nil, testMeta(1), Options{SlotsPerWorker: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			<-ready
			wc := coord.workers[0]
			cells := make([]*pendingCell, perLease)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range cells {
					cells[k] = &pendingCell{cell: uint32(i*perLease + k), done: make(chan struct{})}
				}
				coord.mu.Lock()
				wc.inUse++
				coord.mu.Unlock()
				coord.attempt(wc, cells)
				for _, p := range cells {
					if p.err != nil || p.res == nil || p.res.Failed {
						b.Fatalf("cell %d: %+v, %v", p.cell, p.res, p.err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/cell")
		})
	}
}
