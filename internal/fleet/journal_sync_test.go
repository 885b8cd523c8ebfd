package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The coalesced-fsync contract (journal.go header): appends never wait
// for the disk, one syncer runs one fsync at a time, barriers wait for a
// sync that started after the writes they cover, and the first I/O error
// is sticky. Everything here drives a Journal through the journalFile
// seam with a file the test can stall, fail and observe.

// seamFile is a journalFile over a real journal file (so the bytes can
// be scanned and resumed) that counts calls, fails on demand and, when
// gated, holds every Sync until the test releases it.
type seamFile struct {
	f *os.File

	// started receives the number of each Sync as it begins and release
	// lets one Sync return; both nil when the file is not gated.
	started chan int
	release chan struct{}

	syncDelay   time.Duration // a slow disk, for the coalescing test
	failWriteAt int           // 1-based Write call that tears and fails; 0: never
	syncErr     error         // what every Sync returns instead of syncing
	onSync      func()        // called inside every Sync, before it returns

	mu          sync.Mutex
	writes      int   // Write calls that reached the file
	syncs       int   // Sync calls begun
	closes      int   // Close calls
	inFlight    int   // Syncs running now
	maxInFlight int   // high-water mark of inFlight
	covered     []int // per Sync, in start order: writes completed when it began
}

var errInjected = errors.New("injected I/O error")

func (s *seamFile) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes++
	tear := s.writes == s.failWriteAt
	s.mu.Unlock()
	if tear {
		// A short write: half the record reaches the file, then the error.
		n, _ := s.f.Write(p[:len(p)/2])
		return n, errInjected
	}
	return s.f.Write(p)
}

func (s *seamFile) Sync() error {
	s.mu.Lock()
	s.syncs++
	n := s.syncs
	s.covered = append(s.covered, s.writes)
	s.inFlight++
	if s.inFlight > s.maxInFlight {
		s.maxInFlight = s.inFlight
	}
	s.mu.Unlock()
	if s.started != nil {
		s.started <- n
		<-s.release
	}
	time.Sleep(s.syncDelay)
	if s.onSync != nil {
		s.onSync()
	}
	err := s.syncErr
	if err == nil {
		err = s.f.Sync()
	}
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
	return err
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

// gate makes every Sync announce itself on started and wait for release.
func (s *seamFile) gate() {
	s.started = make(chan int)
	s.release = make(chan struct{})
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

// (a) With the disk stalled, appenders are never held up; only the
// barrier is, and it returns once the disk answers.
func TestJournalAppendsDoNotWaitForSync(t *testing.T) {
	j, sf := openSeamJournal(t)
	sf.gate()
	const records = 1000
	// The first write wakes the syncer, whose Sync then stalls; drain its
	// start notice so later Syncs can announce themselves too.
	go func() {
		for range sf.started {
		}
	}()
	appendFrom(t, j, 8, records, make([]byte, 64))
	if w, _ := sf.counts(); w != records {
		t.Fatalf("%d writes for %d records: every record is one write", w, records)
	}

	done := make(chan struct{})
	var berr error
	go func() {
		defer close(done)
		berr = j.barrier()
	}()
	stillBlocked(t, done, "barrier with Sync stalled")
	j.mu.Lock()
	written, synced := j.written, j.synced
	j.mu.Unlock()
	if written != records || synced != 0 {
		t.Fatalf("written=%d synced=%d with Sync stalled, want %d and 0", written, synced, records)
	}

	close(sf.release) // every Sync from here on returns at once
	<-done
	if berr != nil {
		t.Fatalf("barrier: %v", berr)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	close(sf.started)
}

// (b) A sync already in flight when a record is written does not cover
// it: the barrier waits for one that started afterwards.
func TestJournalBarrierNeedsASyncStartedAfterTheWrite(t *testing.T) {
	j, sf := openSeamJournal(t)
	sf.gate()
	payload := []byte("x")
	if err := j.AppendCellData(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	if n := <-sf.started; n != 1 {
		t.Fatalf("sync %d started first", n)
	}
	// Sync 1 is in flight; record 1 is written behind its back.
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

	sf.release <- struct{}{} // sync 1 completes, covering only record 0
	if n := <-sf.started; n != 2 {
		t.Fatalf("sync %d started second", n)
	}
	stillBlocked(t, done, "barrier after a sync that predates its record")
	j.mu.Lock()
	written, synced := j.written, j.synced
	j.mu.Unlock()
	if written != 2 || synced != 1 {
		t.Fatalf("written=%d synced=%d after sync 1, want 2 and 1", written, synced)
	}

	sf.release <- struct{}{} // sync 2 started after record 1's write
	<-done
	if got := sf.covered; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("syncs began after %v writes, want [1 2]", got)
	}
	close(sf.release)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// (c) Under a slow disk syncs coalesce — far fewer than records — and
// never overlap.
func TestJournalSyncsCoalesceOneInFlight(t *testing.T) {
	j, sf := openSeamJournal(t)
	sf.syncDelay = time.Millisecond
	const records = 2000
	appendFrom(t, j, 8, records, make([]byte, 700))
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	writes, syncs := sf.counts()
	if writes != records {
		t.Fatalf("%d writes for %d records", writes, records)
	}
	if syncs < 1 || syncs >= records {
		t.Fatalf("%d syncs for %d records: want at least one and fewer than records", syncs, records)
	}
	if sf.maxInFlight != 1 {
		t.Fatalf("%d syncs in flight at once, want exactly 1", sf.maxInFlight)
	}
	if last := sf.covered[len(sf.covered)-1]; last != records {
		t.Fatalf("the barrier returned after a sync covering %d of %d writes", last, records)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	scan := scanPath(t, j.Path())
	if scan.TailErr != nil || len(scan.Records) != records {
		t.Fatalf("journal scans to %d records, tail %v", len(scan.Records), scan.TailErr)
	}
}

// (d) A failed fsync is sticky: the barrier, the next append, Close and
// MapOpts all report it, and the file is never written again.
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

	if err := j.AppendCellData(0, 1, []byte("y")); !errors.Is(err, errInjected) {
		t.Fatalf("append after a failed sync = %v", err)
	}
	if _, err := j.Merge([]JournalRecord{{Kind: recCell, Sweep: 3, Cell: 3, Data: []byte("z")}}); !errors.Is(err, errInjected) {
		t.Fatalf("merge after a failed sync = %v", err)
	}
	j.appendFailure(0, 2, "cell-2", ClassError, "boom")
	if b := j.Bundles(); len(b) != 0 {
		t.Fatalf("repro bundle %v written for a failure record that was refused", b)
	}
	out, err := MapOpts(Options{Workers: 2, Run: &Run{Journal: j}}, 6,
		func(i, _ int) (int, error) { return i, nil })
	if !errors.Is(err, errInjected) {
		t.Fatalf("MapOpts on a poisoned journal = %v", err)
	}
	if len(out) != 6 || len(JobErrors(err)) != 6 {
		t.Fatalf("MapOpts: %d results, %d job errors, want 6 and 6", len(out), len(JobErrors(err)))
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
	if _, ok := j.lookupCell(0, 1); ok {
		t.Fatal("a refused append left replay state")
	}
}

// (d, sweep side) A sync failure that only the end-of-sweep barrier can
// see — every append of the sweep succeeded — is a sweep error.
func TestMapOptsSurfacesBarrierError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		j, sf := openSeamJournal(t)
		sf.gate()
		sf.syncErr = errInjected
		mapped := make(chan error)
		go func() {
			_, err := MapOpts(Options{Workers: workers, Run: &Run{Journal: j}}, 4,
				func(i, _ int) (int, error) { return i, nil })
			mapped <- err
		}()
		<-sf.started
		// All four cells append while the doomed sync is in flight.
		for w := 0; w < 4; runtime.Gosched() {
			w, _ = sf.counts()
		}
		close(sf.release)
		err := <-mapped
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

// Satellite bug: a torn write used to leave the journal appendable, and
// every record appended behind the torn one was invisible to resume.
func TestJournalWriteErrorIsSticky(t *testing.T) {
	const k = 4 // the 4th record tears
	j, sf := openSeamJournal(t)
	sf.failWriteAt = k
	for i := 0; i < 8; i++ {
		err := j.appendCell(0, uint32(i), &cellResult{Name: fmt.Sprintf("cell-%d", i)})
		switch {
		case i < k-1 && err != nil:
			t.Fatalf("record %d: %v", i, err)
		case i >= k-1 && !errors.Is(err, errInjected):
			t.Fatalf("record %d = %v, want the write error", i, err)
		}
	}
	if w, _ := sf.counts(); w != k {
		t.Fatalf("%d writes: records after the torn one must not reach the file", w)
	}
	if err := j.barrier(); !errors.Is(err, errInjected) {
		t.Fatalf("barrier = %v", err)
	}
	if err := j.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v", err)
	}

	scan := scanPath(t, j.Path())
	if scan.TailErr == nil || len(scan.Records) != k-1 {
		t.Fatalf("scan: %d records, tail %v; want %d and a torn tail", len(scan.Records), scan.TailErr, k-1)
	}
	r, err := ResumeJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Replayable() != k-1 {
		t.Fatalf("resume replays %d cells, want exactly the %d before the torn record", r.Replayable(), k-1)
	}
	for i := 0; i < 8; i++ {
		if _, ok := r.lookupCell(0, uint32(i)); ok != (i < k-1) {
			t.Fatalf("cell %d replayable = %v", i, ok)
		}
	}
}

// (e) Close makes unsynced records durable, joins the syncer and closes
// the file once; closing again does nothing.
func TestJournalCloseSyncsJoinsAndIsIdempotent(t *testing.T) {
	j, sf := openSeamJournal(t)
	sf.gate()
	for i := 0; i < 3; i++ {
		if err := j.AppendCellData(0, uint32(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	<-sf.started // sync 1 in flight, covering at least record 0
	closed := make(chan error)
	go func() { closed <- j.Close() }()
	for closing := false; !closing; runtime.Gosched() {
		j.mu.Lock()
		closing = j.f == nil
		j.mu.Unlock()
	}
	stillBlocked(t, j.syncerDone, "the syncer, with records unsynced")
	if err := j.AppendCellData(0, 9, []byte("late")); !errors.Is(err, errJournalClosed) {
		t.Fatalf("append during Close = %v, want %v", err, errJournalClosed)
	}
	sf.mu.Lock()
	closes := sf.closes
	sf.mu.Unlock()
	if closes != 0 {
		t.Fatal("the file was closed under a sync in flight")
	}

	close(sf.release)
	go func() {
		for range sf.started {
		}
	}()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-j.syncerDone:
	default:
		t.Fatal("Close returned with the syncer still running")
	}
	if last := sf.covered[len(sf.covered)-1]; last != 3 {
		t.Fatalf("the last sync began after %d of 3 writes", last)
	}
	writes, syncs := sf.counts()
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if w, s := sf.counts(); w != writes || s != syncs || sf.closes != 1 {
		t.Fatalf("second Close touched the file: writes %d→%d syncs %d→%d closes %d", writes, w, syncs, s, sf.closes)
	}
	close(sf.started)
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
	sf.gate()
	done := make(chan struct{})
	go func() {
		defer close(done)
		j.appendFailure(0, 7, "cell-7", ClassPanicked, "boom")
	}()
	<-sf.started // the failure record is written, its sync is in flight
	stillBlocked(t, done, "appendFailure with its record not yet durable")
	if _, err := os.Stat(bundle); err == nil {
		t.Fatal("the bundle exists while the record's sync is still in flight")
	}
	close(sf.release)
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
	if sf.covered[0] != 1 {
		t.Fatalf("the sync the bundle waited for began after %d writes, want 1", sf.covered[0])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// One frame per record, filled in place: the file bytes, the snapshot
// and the canonical form are what the three-copy framing produced.
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
	snap := j.SnapshotRecords()
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
	canon := scan.Canonical()
	if len(snap) != len(canon) {
		t.Fatalf("snapshot has %d records, canonical %d", len(snap), len(canon))
	}
	for i := range canon {
		s, c := snap[i], canon[i]
		if s.Kind != c.Kind || s.Sweep != c.Sweep || s.Cell != c.Cell || string(s.Data) != string(c.Data) ||
			s.Label != c.Label || s.Class != c.Class || s.Error != c.Error {
			t.Fatalf("snapshot[%d] = %+v, canonical %+v", i, s, c)
		}
	}
}

// BenchmarkJournalAppend is the journal layer on its own: 700-byte
// records (a gob'd PlanetLab cell) appended by 1, 2 and 8 goroutines to
// a real file, in sweeps of 3,900 cells (the fleet_journal workload's)
// that each end in the barrier. ns/op is per record, barrier included.
func BenchmarkJournalAppend(b *testing.B) {
	const sweepCells = 3900
	payload := make([]byte, 700)
	for _, appenders := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			syncs := 0
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
				_, n := sf.counts()
				syncs += n
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
				os.Remove(j.Path())
				b.StartTimer()
			}
			b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/record")
		})
	}
}
