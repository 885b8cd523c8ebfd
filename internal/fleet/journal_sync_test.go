package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The group-commit contract (journal.go header): appends only queue, and
// never wait for the disk; one flusher makes one batch at a time durable
// with one Write and one Sync, no oftener than flushEvery
// unless a barrier asks, barriers wait for a flush that started after the
// records they cover were queued, and the first I/O error is sticky.
// Everything here drives a Journal through the journalFile seam with a
// file the test can stall, fail and observe, and a clock it can stop.

// seamFile is a journalFile over a real journal file (so the bytes can
// be scanned and resumed) that counts calls and the records they carry,
// fails on demand and, when gated, holds every flush until the test
// releases it.
type seamFile struct {
	f *os.File

	// When gated, every Write (stallWrite) or else every Sync announces
	// its flush's number on started and waits for release.
	started    chan int
	release    chan struct{}
	stallWrite bool

	syncDelay   time.Duration // a slow disk, for the coalescing test
	failWriteAt int           // 1-based Write call that tears and fails; 0: never
	syncErr     error         // what every Sync returns instead of syncing
	onSync      func()        // called inside every Sync, before it returns

	mu          sync.Mutex
	calls       []byte // 'W' and 'S' in call order
	writes      int    // Write calls that reached the file
	syncs       int    // Sync calls begun
	closes      int    // Close calls
	inFlight    int    // Write and Sync calls running now
	maxInFlight int    // high-water mark of inFlight
	records     int    // records handed to Write so far
	flushed     []int  // per Write, in order: records handed over up to and including it
}

var errInjected = errors.New("injected I/O error")

// enter counts one call in; the caller holds s.mu.
func (s *seamFile) enter(call byte) {
	s.calls = append(s.calls, call)
	s.inFlight++
	s.maxInFlight = max(s.maxInFlight, s.inFlight)
}

func (s *seamFile) leave() {
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
}

func (s *seamFile) stall(write bool, n int) {
	if s.started != nil && write == s.stallWrite {
		s.started <- n
		<-s.release
	}
}

func (s *seamFile) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.enter('W')
	s.writes++
	n := s.writes
	for off := 0; off+recHeaderLen <= len(p); s.records++ {
		off += recHeaderLen + int(binary.LittleEndian.Uint32(p[off:]))
	}
	s.flushed = append(s.flushed, s.records)
	s.mu.Unlock()
	defer s.leave()
	s.stall(true, n)
	if n == s.failWriteAt {
		// A short write: half the batch reaches the file, then the error.
		n, _ := s.f.Write(p[:len(p)/2])
		return n, errInjected
	}
	return s.f.Write(p)
}

func (s *seamFile) Sync() error {
	s.mu.Lock()
	s.enter('S')
	s.syncs++
	n := s.syncs
	s.mu.Unlock()
	defer s.leave()
	s.stall(false, n)
	time.Sleep(s.syncDelay)
	if s.onSync != nil {
		s.onSync()
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.f.Sync()
}

func (s *seamFile) Close() error {
	s.mu.Lock()
	s.closes++
	s.mu.Unlock()
	return s.f.Close()
}

func (s *seamFile) counts() (writes, syncs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.syncs
}

// gate makes every flush announce itself on started — from its Write if
// inWrite, else from its Sync — and wait there for release.
func (s *seamFile) gate(inWrite bool) {
	s.started = make(chan int)
	s.release = make(chan struct{})
	s.stallWrite = inWrite
}

// open lifts the gate: every stalled and future flush runs through.
func (s *seamFile) open() {
	close(s.release)
	go func() {
		for range s.started {
		}
	}()
}

// awaitFlush waits for flush number want to reach the gate.
func (s *seamFile) awaitFlush(t *testing.T, want int) {
	t.Helper()
	select {
	case n := <-s.started:
		if n != want {
			t.Fatalf("flush %d reached the gate, want flush %d", n, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("flush %d never started", want)
	}
}

// noFlush fails the test if a flush reaches the gate within two
// flushEvery of real time.
func (s *seamFile) noFlush(t *testing.T, why string) {
	t.Helper()
	select {
	case n := <-s.started:
		t.Fatalf("flush %d started %s", n, why)
	case <-time.After(2 * flushEvery):
	}
}

// testClock is a journal clock that moves only when the test says so.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// stopClock puts j on a stopped clock. Call it before the first append.
func stopClock(j *Journal) *testClock {
	c := new(testClock)
	c.ns.Store(int64(time.Hour))
	j.mu.Lock()
	j.now = c.Now
	j.mu.Unlock()
	return c
}

// openSeamJournal creates a journal file the production way (magic and
// durable meta record), then reopens it behind a seamFile. The caller
// configures the returned seamFile before the first append.
func openSeamJournal(tb testing.TB) (*Journal, *seamFile) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	sf := &seamFile{f: f}
	return newJournal(sf, path, testMeta()), sf
}

// appendFrom has appenders goroutines append records cells [0,n) of
// sweep 0 between them and returns once every append has returned.
func appendFrom(tb testing.TB, j *Journal, appenders, n int, payload []byte) {
	tb.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(appenders)
	for a := 0; a < appenders; a++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if err := j.AppendCellData(0, uint32(i), payload); err != nil {
					tb.Errorf("append %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// progress returns the journal's queued and synced record counts.
func progress(j *Journal) (queued, synced uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queued, j.synced
}

// stillBlocked fails the test if done closes within a grace period: the
// only way to observe that something has NOT happened.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while it had to wait", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// (a) With the disk stalled — in Write or in Sync — appenders are never
// held up and reach the file no further; only the barrier waits, and it
// returns once the disk answers.
func TestJournalAppendsDoNotWaitForSync(t *testing.T) {
	for _, inWrite := range []bool{true, false} {
		j, sf := openSeamJournal(t)
		sf.gate(inWrite)
		const records = 1000
		// The first record starts flush 1, which stalls; drain its start
		// notice so later flushes can announce themselves too.
		go func() {
			for range sf.started {
			}
		}()
		appendFrom(t, j, 8, records, make([]byte, 64))
		if w, _ := sf.counts(); w > 1 {
			t.Fatalf("inWrite=%v: %d writes with flush 1 stalled: appends must not reach the file", inWrite, w)
		}

		done := make(chan struct{})
		var berr error
		go func() {
			defer close(done)
			berr = j.barrier()
		}()
		stillBlocked(t, done, "barrier with the flush stalled")
		if queued, synced := progress(j); queued != records || synced != 0 {
			t.Fatalf("inWrite=%v: queued=%d synced=%d with the flush stalled, want %d and 0", inWrite, queued, synced, records)
		}

		close(sf.release) // every flush from here on runs through
		<-done
		if berr != nil {
			t.Fatalf("barrier: %v", berr)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		close(sf.started)
		if last := sf.flushed[len(sf.flushed)-1]; last != records {
			t.Fatalf("inWrite=%v: the flushes carried %d of %d records", inWrite, last, records)
		}
	}
}

// (b) A flush already in flight when a record is queued does not cover
// it: the barrier waits for one that started afterwards.
func TestJournalBarrierNeedsASyncStartedAfterTheWrite(t *testing.T) {
	j, sf := openSeamJournal(t)
	stopClock(j) // only the barrier may start flush 2
	sf.gate(false)
	payload := []byte("x")
	if err := j.AppendCellData(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	sf.awaitFlush(t, 1)
	// Flush 1 is in flight; record 1 is queued behind its back.
	if err := j.AppendCellData(0, 1, payload); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := j.barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
	}()

	sf.release <- struct{}{} // flush 1 completes, covering only record 0
	sf.awaitFlush(t, 2)
	stillBlocked(t, done, "barrier after a flush that predates its record")
	if queued, synced := progress(j); queued != 2 || synced != 1 {
		t.Fatalf("queued=%d synced=%d after flush 1, want 2 and 1", queued, synced)
	}

	sf.release <- struct{}{} // flush 2 started after record 1 was queued
	<-done
	if got := sf.flushed; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("flushes carried %v records (cumulative), want [1 2]", got)
	}
	sf.open()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// (c) Flushes coalesce — far fewer than records — never overlap, and are
// each one Write followed by one Sync.
func TestJournalSyncsCoalesceOneInFlight(t *testing.T) {
	j, sf := openSeamJournal(t)
	sf.syncDelay = time.Millisecond
	const records = 2000
	appendFrom(t, j, 8, records, make([]byte, 700))
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	writes, syncs := sf.counts()
	if writes != syncs || string(sf.calls) != strings.Repeat("WS", writes) {
		t.Fatalf("calls %q: every flush is one Write then one Sync", sf.calls)
	}
	if writes < 1 || writes > records/100 {
		t.Fatalf("%d flushes for %d records: want at least one and batches, not records", writes, records)
	}
	if sf.maxInFlight != 1 {
		t.Fatalf("%d file calls in flight at once, want exactly 1", sf.maxInFlight)
	}
	if last := sf.flushed[len(sf.flushed)-1]; last != records {
		t.Fatalf("the barrier returned after flushes carrying %d of %d records", last, records)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	scan := scanPath(t, j.Path())
	if scan.TailErr != nil || len(scan.Records) != records {
		t.Fatalf("journal scans to %d records, tail %v", len(scan.Records), scan.TailErr)
	}
}

// Between barriers the flusher starts no flush until flushEvery has
// passed since the previous one started, then exactly one for everything
// queued meanwhile; and a record queued after an idle spell goes at once.
func TestJournalFlushesPacedByFlushEvery(t *testing.T) {
	j, sf := openSeamJournal(t)
	clk := stopClock(j)
	sf.gate(true)
	payload := make([]byte, 64)
	if err := j.AppendCellData(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	sf.awaitFlush(t, 1) // nothing was flushed before: no interval to wait out
	sf.release <- struct{}{}
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}

	appendFrom(t, j, 8, 100, payload)
	sf.noFlush(t, "with no time passed since flush 1 started")
	clk.advance(flushEvery - time.Millisecond)
	sf.noFlush(t, "a millisecond before flushEvery had passed")
	clk.advance(time.Millisecond)
	sf.awaitFlush(t, 2)
	sf.release <- struct{}{}
	if err := j.barrier(); err != nil { // flush 2 carried all 100: nothing left to start
		t.Fatal(err)
	}

	clk.advance(10 * flushEvery) // idle
	if err := j.AppendCellData(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	sf.awaitFlush(t, 3) // at once: the clock is stopped, no interval can run out
	sf.release <- struct{}{}
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	if got := sf.flushed; len(got) != 3 || got[0] != 1 || got[1] != 101 || got[2] != 102 {
		t.Fatalf("flushes carried %v records (cumulative), want [1 101 102]", got)
	}
	sf.open()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Appenders wake the flusher when the batch goes from empty to non-empty
// and never again: N appends behind a stalled flush cost one wake-up.
func TestJournalAppendsWakeFlusherOncePerBatch(t *testing.T) {
	j, sf := openSeamJournal(t)
	stopClock(j)
	sf.gate(true)
	payload := []byte("x")
	if err := j.AppendCellData(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	sf.awaitFlush(t, 1) // the flusher is stalled in Write; the batch is empty again
	if err := j.AppendCellData(0, 1, payload); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.kick: // the one wake-up, taken from the flusher (it re-reads the batch anyway)
	default:
		t.Fatal("the first record of a batch did not wake the flusher")
	}
	for i := 2; i < 1000; i++ {
		if err := j.AppendCellData(0, uint32(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if len(j.kick) != 0 {
		t.Fatal("a record queued on a non-empty batch woke the flusher")
	}
	sf.open()
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	if got := sf.flushed; len(got) != 2 || got[1] != 1000 {
		t.Fatalf("flushes carried %v records (cumulative), want [1 1000]", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// (d) A failed fsync is sticky: the barrier, the next append, Close and
// MapOpts all report it, and the file is never touched again.
func TestJournalSyncErrorIsSticky(t *testing.T) {
	j, sf := openSeamJournal(t)
	sf.syncErr = errInjected
	if err := j.AppendCellData(0, 0, []byte("x")); err != nil {
		t.Fatalf("the append before the failed sync: %v", err)
	}
	if err := j.barrier(); !errors.Is(err, errInjected) {
		t.Fatalf("barrier = %v, want the sync error", err)
	}
	writes, syncs := sf.counts()
	queued, synced := progress(j)
	if synced != 0 {
		t.Fatalf("synced=%d: a batch whose Sync failed counts as durable", synced)
	}

	if err := j.AppendCellData(0, 1, []byte("y")); !errors.Is(err, errInjected) {
		t.Fatalf("append after a failed sync = %v", err)
	}
	j.appendFailure(0, 2, "cell-2", ClassError, "boom")
	if b := j.Bundles(); len(b) != 0 {
		t.Fatalf("repro bundle %v written for a failure record that was refused", b)
	}
	for _, workers := range []int{1, 2} {
		out, err := MapOpts(Options{Workers: workers, Run: &Run{Journal: j}}, 6,
			func(i, _ int) (int, error) { return i, nil })
		if !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: MapOpts on a poisoned journal = %v", workers, err)
		}
		if len(out) != 6 || len(JobErrors(err)) != 6 {
			t.Fatalf("workers=%d: MapOpts: %d results, %d job errors, want 6 and 6", workers, len(out), len(JobErrors(err)))
		}
	}
	if err := j.barrier(); !errors.Is(err, errInjected) {
		t.Fatalf("second barrier = %v", err)
	}
	if err := j.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v", err)
	}
	if w, s := sf.counts(); w != writes || s != syncs {
		t.Fatalf("after the error: %d writes and %d syncs, were %d and %d — the file was touched again", w, s, writes, syncs)
	}
	if q, _ := progress(j); q != queued {
		t.Fatalf("queued %d → %d: a refused append was buffered", queued, q)
	}
	if _, ok := j.lookupCell(0, 1); ok {
		t.Fatal("a refused append left replay state")
	}
}

// (d, sweep side) The end-of-sweep barrier holds MapOpts until a flush
// covers the sweep's records, and a flush failure that only it can see —
// every append of the sweep succeeded — is a sweep error.
func TestMapOptsSurfacesBarrierError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		j, sf := openSeamJournal(t)
		sf.gate(false)
		sf.syncErr = errInjected
		mapped := make(chan struct{})
		var err error
		go func() {
			defer close(mapped)
			_, err = MapOpts(Options{Workers: workers, Run: &Run{Journal: j}}, 4,
				func(i, _ int) (int, error) { return i, nil })
		}()
		sf.awaitFlush(t, 1)
		// All four cells are queued while the doomed flush is in flight.
		for q := uint64(0); q < 4; runtime.Gosched() {
			q, _ = progress(j)
		}
		stillBlocked(t, mapped, "MapOpts with its records' flush in flight")
		sf.open()
		<-mapped
		if !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: MapOpts = %v, want the barrier's error", workers, err)
		}
		if len(JobErrors(err)) != 0 {
			t.Fatalf("workers=%d: no cell failed, yet job errors %v", workers, JobErrors(err))
		}
		if err := j.Close(); !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: Close = %v", workers, err)
		}
	}
}

// The meta record's barrier: a journal is not handed out before a flush
// has covered its identity.
func TestCreateJournalWaitsForMetaFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(journalMagic)); err != nil {
		t.Fatal(err)
	}
	sf := &seamFile{f: f}
	sf.gate(false)
	started := make(chan struct{})
	var j *Journal
	go func() {
		defer close(started)
		j, err = startJournal(sf, path, testMeta(), []byte(`{"version":1,"tool":"halfback-sim"}`))
	}()
	sf.awaitFlush(t, 1)
	stillBlocked(t, started, "startJournal with the meta record's flush in flight")
	sf.open()
	<-started
	if err != nil {
		t.Fatal(err)
	}
	if queued, synced := progress(j); queued != 1 || synced != 1 {
		t.Fatalf("queued=%d synced=%d after startJournal, want 1 and 1", queued, synced)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if scan := scanPath(t, path); scan.Meta.Tool != "halfback-sim" || scan.TailErr != nil {
		t.Fatalf("scan: meta %+v, tail %v", scan.Meta, scan.TailErr)
	}
}

// A batch Write that tears mid-batch is sticky, none of the batch counts
// as durable, and resume replays exactly the valid prefix of the file.
// (Before the journal refused appends after a write error, every record
// appended behind the torn one was invisible to resume.)
func TestJournalWriteErrorIsSticky(t *testing.T) {
	const batch = 5 // records in the torn batch; half its bytes reach the file
	j, sf := openSeamJournal(t)
	stopClock(j)
	sf.gate(true)
	sf.failWriteAt = 2
	cell := func(i int) error {
		return j.appendCell(0, uint32(i), &cellResult{Name: fmt.Sprintf("cell-%d", i)})
	}
	if err := cell(0); err != nil {
		t.Fatal(err)
	}
	sf.awaitFlush(t, 1)
	for i := 1; i <= batch; i++ { // equal-sized records, queued behind flush 1
		if err := cell(i); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	sf.open()
	if err := j.barrier(); !errors.Is(err, errInjected) {
		t.Fatalf("barrier = %v, want the write error", err)
	}
	if got := sf.flushed; len(got) != 2 || got[1] != 1+batch {
		t.Fatalf("flushes carried %v records (cumulative), want [1 %d]", got, 1+batch)
	}
	queued, synced := progress(j)
	if synced != 1 {
		t.Fatalf("synced=%d: none of the torn batch may count", synced)
	}
	if err := cell(9); !errors.Is(err, errInjected) {
		t.Fatalf("append after the write error = %v", err)
	}
	if q, _ := progress(j); q != queued {
		t.Fatalf("queued %d → %d: a refused append was buffered", queued, q)
	}
	if err := j.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v", err)
	}
	if w, s := sf.counts(); w != 2 || s != 1 {
		t.Fatalf("%d writes, %d syncs: want 2 and 1 — nothing after the torn Write, not even its Sync", w, s)
	}

	const valid = 1 + batch/2 // flush 1's record, then the whole records in half of flush 2
	scan := scanPath(t, j.Path())
	if scan.TailErr == nil || len(scan.Records) != valid {
		t.Fatalf("scan: %d records, tail %v; want %d and a torn tail", len(scan.Records), scan.TailErr, valid)
	}
	r, err := ResumeJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Replayable() != valid {
		t.Fatalf("resume replays %d cells, want exactly the %d before the torn record", r.Replayable(), valid)
	}
	for i := 0; i <= batch; i++ {
		if _, ok := r.lookupCell(0, uint32(i)); ok != (i < valid) {
			t.Fatalf("cell %d replayable = %v", i, ok)
		}
	}
}

// (e) Close flushes the remainder, joins the flusher and closes the file
// once; closing again does nothing.
func TestJournalCloseSyncsJoinsAndIsIdempotent(t *testing.T) {
	j, sf := openSeamJournal(t)
	stopClock(j) // only Close may start the flush of the remainder
	sf.gate(false)
	for i := 0; i < 3; i++ {
		if err := j.AppendCellData(0, uint32(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			sf.awaitFlush(t, 1) // in flight, carrying record 0 alone
		}
	}
	closed := make(chan error)
	go func() { closed <- j.Close() }()
	for closing := false; !closing; runtime.Gosched() {
		j.mu.Lock()
		closing = j.f == nil
		j.mu.Unlock()
	}
	stillBlocked(t, j.flusherDone, "the flusher, with records unflushed")
	if err := j.AppendCellData(0, 9, []byte("late")); !errors.Is(err, errJournalClosed) {
		t.Fatalf("append during Close = %v, want %v", err, errJournalClosed)
	}
	sf.mu.Lock()
	closes := sf.closes
	sf.mu.Unlock()
	if closes != 0 {
		t.Fatal("the file was closed under a flush in flight")
	}

	sf.open()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-j.flusherDone:
	default:
		t.Fatal("Close returned with the flusher still running")
	}
	if got := sf.flushed; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("flushes carried %v records (cumulative), want [1 3]: Close flushes the remainder in one", got)
	}
	writes, syncs := sf.counts()
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if w, s := sf.counts(); w != writes || s != syncs || sf.closes != 1 {
		t.Fatalf("second Close touched the file: writes %d→%d syncs %d→%d closes %d", writes, w, syncs, s, sf.closes)
	}
}

// (f) A repro bundle never exists before its failure record is durable.
func TestJournalFailureDurableBeforeBundle(t *testing.T) {
	j, sf := openSeamJournal(t)
	bundle := fmt.Sprintf("%s.s0c7.repro.json", j.Path())
	var early atomic.Bool
	sf.onSync = func() {
		if _, err := os.Stat(bundle); err == nil {
			early.Store(true)
		}
	}
	sf.gate(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		j.appendFailure(0, 7, "cell-7", ClassPanicked, "boom")
	}()
	sf.awaitFlush(t, 1) // the failure record is written, its sync is in flight
	stillBlocked(t, done, "appendFailure with its record not yet durable")
	if _, err := os.Stat(bundle); err == nil {
		t.Fatal("the bundle exists while the record's flush is still in flight")
	}
	sf.open()
	<-done
	if early.Load() {
		t.Fatal("the bundle existed during a sync")
	}
	if b := j.Bundles(); len(b) != 1 || b[0] != bundle {
		t.Fatalf("bundles = %v, want [%s]", b, bundle)
	}
	if _, err := os.Stat(bundle); err != nil {
		t.Fatal(err)
	}
	if sf.flushed[0] != 1 {
		t.Fatalf("the flush the bundle waited for carried %d records, want 1", sf.flushed[0])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Batching changes when bytes reach the file, never which: a single
// appender's file is its sealed frames in append order, whatever the
// flushes' boundaries were.
func TestJournalFileIsFramesInAppendOrder(t *testing.T) {
	j, _ := openSeamJournal(t)
	want, err := os.ReadFile(j.Path()) // magic + meta record
	if err != nil {
		t.Fatal(err)
	}
	seal := func(rec []byte) []byte {
		payload := rec[recHeaderLen:]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
		return rec
	}
	for i := 0; i < 300; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 1+i*7%900)
		if i%50 == 7 {
			j.appendFailure(2, uint32(i), "label", ClassError, string(data)) // a barrier mid-stream
			rec := startRecord(recFail, 2, uint32(i), 0)
			for _, s := range []string{"label", ClassError, string(data)} {
				rec = append(binary.AppendUvarint(rec, uint64(len(s))), s...)
			}
			want = append(want, seal(rec)...)
			continue
		}
		if err := j.AppendCellData(2, uint32(i), data); err != nil {
			t.Fatal(err)
		}
		want = append(want, seal(append(startRecord(recCell, 2, uint32(i), len(data)), data...))...)
		if i%97 == 0 {
			time.Sleep(flushEvery) // let a paced flush cut the stream here
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal file (%d bytes) is not the appended frames in order (%d bytes)", len(got), len(want))
	}
}

// One frame per record, filled in place: the file bytes and the replay
// state are what the three-copy framing produced.
func TestRecordFramingBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{0xde, 0xad, 0xbe, 0xef}
	// Keys on both sides of a uvarint length boundary.
	keys := []cellKey{{0, 0}, {1, 127}, {128, 16383}, {16384, 1<<32 - 1}}
	for _, k := range keys {
		if err := j.AppendCellData(k.sweep, k.cell, data); err != nil {
			t.Fatal(err)
		}
	}
	j.appendFailure(300, 5, "label", ClassStalled, "")
	data[0] = 0 // the journal must not alias the caller's buffer
	for _, k := range keys {
		if got, ok := j.lookupCell(k.sweep, k.cell); !ok || string(got) != "\xde\xad\xbe\xef" {
			t.Fatalf("replay of %v = %x, %v", k, got, ok)
		}
	}
	if _, ok := j.lookupCell(300, 5); ok {
		t.Fatal("the failed cell replays")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	scan := scanPath(t, path)
	if scan.TailErr != nil || len(scan.Records) != len(keys)+1 {
		t.Fatalf("scan: %d records, tail %v", len(scan.Records), scan.TailErr)
	}
	for i, k := range keys {
		rec := scan.Records[i]
		wantLen := recHeaderLen + 1 + uvarintLen(uint64(k.sweep)) + uvarintLen(uint64(k.cell)) + 4
		if rec.Sweep != k.sweep || rec.Cell != k.cell || string(rec.Data) != "\xde\xad\xbe\xef" || rec.Len != int64(wantLen) {
			t.Fatalf("record %d = %+v, want key %v in %d bytes", i, rec, k, wantLen)
		}
	}
	if f := scan.Records[len(keys)]; f.Kind != recFail || f.Label != "label" || f.Class != ClassStalled || f.Error != "" {
		t.Fatalf("failure record = %+v", f)
	}
}

// BenchmarkJournalAppend is the journal layer on its own: 700-byte
// records (a PlanetLab cell's size under gob) appended by 1, 2 and 8 goroutines to
// a real file, in sweeps of 3,900 cells (the fleet_journal workload's)
// that each end in the barrier. ns/op is per record, barrier included.
func BenchmarkJournalAppend(b *testing.B) {
	const sweepCells = 3900
	payload := make([]byte, 700)
	for _, appenders := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			writes, syncs := 0, 0
			b.ResetTimer()
			for done := 0; done < b.N; done += sweepCells {
				b.StopTimer()
				j, sf := openSeamJournal(b)
				b.StartTimer()

				appendFrom(b, j, appenders, min(sweepCells, b.N-done), payload)
				if err := j.barrier(); err != nil {
					b.Fatal(err)
				}

				b.StopTimer()
				w, n := sf.counts()
				writes += w
				syncs += n
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
				os.Remove(j.Path())
				b.StartTimer()
			}
			b.ReportMetric(float64(writes)/float64(b.N), "writes/record")
			b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/record")
		})
	}
}
