package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"
)

// The write-ahead cell journal (DESIGN.md §9 "Crash-safe runs and
// resume").
//
// A journal file is:
//
//	8-byte magic "HBJRNL04"
//	record*
//
// and every record is:
//
//	uint32 LE payload length
//	uint32 LE CRC-32C (Castagnoli) of the payload
//	payload
//
// The first record's payload is the meta record (kind 0, JSON-encoded
// JournalMeta — enough to reconstruct the command line that produced
// the run). Every later record is either a completed cell (kind 1:
// sweep, cell index, the result's payload, codec.go) or a failed cell (kind 2:
// sweep, cell index, label, failure class, message).
//
// Durability is group commit. An append seals its record and queues it
// on an in-memory batch under the journal mutex, in arrival order: no
// syscall. One background flusher per open journal takes the batch and,
// with the mutex released, issues one write(2) of all of it to the
// O_APPEND descriptor and one fsync. It does so once flushEvery has
// passed since the previous flush started, or at once when a barrier is
// waiting or Close was called. A barrier ("every record queued so far is
// covered by a completed flush, or here is the error") is awaited only
// where the run's state escapes the process:
//
//   - at the end of every MapOpts, before the dispatcher is told the
//     sweep has merged;
//   - after the meta record, in CreateJournal;
//   - in Close.
//
// The first write or sync error is sticky: a failed fsync may drop the
// dirty pages and report success the next time, and a short batch write
// leaves a torn record hiding everything behind it from ScanJournal, so
// from then on every append, barrier and Close returns the error without
// buffering or touching the file. The decoder tolerates a torn tail: the
// first record with a bad length, payload or checksum ends the journal.
//
// What can be lost: between barriers a record reaches the disk no later
// than flushEvery plus one write+fsync after its append returned. Death
// of the process (SIGKILL, the second SIGINT's os.Exit, a runtime fatal)
// and loss of power both lose the records appended since the last flush
// began, and nothing that was reported (sweep done, meta): that passed a
// barrier. The lost cells re-execute on resume from their own seeds to
// the same bytes.
//
// Replay is last-record-wins per (sweep, cell): a failure later
// superseded by a success (a resumed re-execution) replays as the
// success, and vice versa. Only successes replay; failed and missing
// cells re-execute on resume.

// journalMagic identifies a journal file and its format version. Format
// 01 carried gob cell payloads; format 02 numbered the sweeps of a
// multi-exhibit program one per exhibit, before exhibits shared sweeps;
// format 03 still carried gob payloads for the cells of Figs. 3 and 15.
// ScanJournal refuses all three by name.
const journalMagic = "HBJRNL04"

// Record kinds.
const (
	recMeta byte = iota
	recCell
	recFail
)

// recHeaderLen is the fixed per-record header: length + CRC.
const recHeaderLen = 8

// flushEvery is the least time between the starts of two flushes that no
// barrier asked for; DESIGN.md §9 has the trade and the scan it came from.
const flushEvery = 25 * time.Millisecond

// crcTable is the Castagnoli polynomial, the usual choice for storage
// checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// JournalMeta identifies the run a journal belongs to. Args holds the
// producing tool's command line (minus the journal/resume flags
// themselves), so `-resume <journal>` is self-contained: the tool
// re-parses Args and re-runs the identical sweep with the journal
// attached.
type JournalMeta struct {
	Tool string   `json:"tool"` // "halfback-sim", "fctsweep", ...
	Seed uint64   `json:"seed"`
	Args []string `json:"args"`
}

// JournalRecord is one decoded cell record (meta is carried separately
// by JournalScan).
type JournalRecord struct {
	Kind  byte
	Sweep uint32
	Cell  uint32
	Data  []byte // recCell: the result's payload (codec.go)
	Label string // recFail
	Class string // recFail
	Error string // recFail
	// Offset is the byte offset of the record's header in the file;
	// Offset+Len is the first byte after the record — the truncation
	// points crash-injection tests cut at.
	Offset int64
	Len    int64
}

// JournalScan is the result of decoding a journal image.
type JournalScan struct {
	Meta    JournalMeta
	Records []JournalRecord
	// Valid is the length in bytes of the valid prefix: everything
	// before it decoded cleanly, everything from it on is torn or
	// corrupt (Valid == len(data) for a clean journal).
	Valid int64
	// TailErr describes why decoding stopped before the end of the
	// data, nil for a clean journal. A torn tail is expected after a
	// crash and does not make the journal unusable.
	TailErr error
}

// Canonical reduces the scan to its replay-relevant content: the last
// record per (sweep, cell) — the one replay would use — sorted by
// address, with file offsets cleared. Two journals whose appends
// happened in different physical orders (a fact of any concurrent or
// chaos-perturbed run) have equal Canonical forms exactly when they
// resume to the same state; it is the journal-identity relation the
// chaos suite asserts.
func (s *JournalScan) Canonical() []JournalRecord {
	last := make(map[cellKey]JournalRecord, len(s.Records))
	for _, rec := range s.Records {
		if rec.Kind != recCell && rec.Kind != recFail {
			continue
		}
		rec.Offset, rec.Len = 0, 0
		last[cellKey{rec.Sweep, rec.Cell}] = rec
	}
	out := make([]JournalRecord, 0, len(last))
	for _, rec := range last {
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Sweep != out[b].Sweep {
			return out[a].Sweep < out[b].Sweep
		}
		return out[a].Cell < out[b].Cell
	})
	return out
}

// Failures returns the cells whose latest record is a failure, in
// address order: the cells `-repro <journal>` re-runs.
func (s *JournalScan) Failures() []JournalRecord {
	var out []JournalRecord
	for _, rec := range s.Canonical() {
		if rec.Kind == recFail {
			out = append(out, rec)
		}
	}
	return out
}

// ErrJournalCorrupt reports a journal whose header or meta record is
// unusable — unlike a torn tail, there is nothing to resume from.
var ErrJournalCorrupt = errors.New("fleet: journal corrupt")

// ScanJournal decodes a journal image. It returns a hard error only
// when the magic or the meta record is unusable; a torn or corrupt
// tail after a valid meta record is reported via TailErr with every
// fully valid record decoded.
func ScanJournal(data []byte) (*JournalScan, error) {
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		if len(data) >= len(journalMagic) && string(data[:6]) == journalMagic[:6] {
			return nil, fmt.Errorf("journal format %q is not this build's %q: resume it with the build that wrote it, or rerun the sweep", data[:len(journalMagic)], journalMagic)
		}
		return nil, fmt.Errorf("%w: bad magic", ErrJournalCorrupt)
	}
	s := &JournalScan{Valid: int64(len(journalMagic))}
	off := int64(len(journalMagic))
	first := true
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < recHeaderLen {
			s.TailErr = fmt.Errorf("torn record header at offset %d", off)
			break
		}
		plen := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if plen > int64(len(rest))-recHeaderLen {
			s.TailErr = fmt.Errorf("torn record payload at offset %d (%d bytes declared, %d present)", off, plen, int64(len(rest))-recHeaderLen)
			break
		}
		payload := rest[recHeaderLen : recHeaderLen+plen]
		if crc32.Checksum(payload, crcTable) != sum {
			s.TailErr = fmt.Errorf("checksum mismatch at offset %d", off)
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// CRC-valid but semantically malformed: a writer bug, not a
			// crash artifact. Treat like corruption at this point.
			s.TailErr = fmt.Errorf("malformed record at offset %d: %w", off, err)
			break
		}
		rec.Offset = off
		rec.Len = recHeaderLen + plen
		if first {
			if rec.Kind != recMeta {
				return nil, fmt.Errorf("%w: first record is not the meta record", ErrJournalCorrupt)
			}
			if err := json.Unmarshal(rec.Data, &s.Meta); err != nil {
				return nil, fmt.Errorf("%w: meta record: %v", ErrJournalCorrupt, err)
			}
			first = false
		} else {
			if rec.Kind == recMeta {
				s.TailErr = fmt.Errorf("duplicate meta record at offset %d", off)
				break
			}
			s.Records = append(s.Records, rec)
		}
		off += rec.Len
		s.Valid = off
	}
	if first {
		// No complete meta record survived: nothing identifies the run.
		if s.TailErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrJournalCorrupt, s.TailErr)
		}
		return nil, fmt.Errorf("%w: missing meta record", ErrJournalCorrupt)
	}
	return s, nil
}

// decodeRecord parses one CRC-valid payload.
func decodeRecord(payload []byte) (JournalRecord, error) {
	var rec JournalRecord
	if len(payload) == 0 {
		return rec, errors.New("empty payload")
	}
	rec.Kind = payload[0]
	body := payload[1:]
	switch rec.Kind {
	case recMeta:
		rec.Data = body
		return rec, nil
	case recCell:
		sweep, cell, rest, err := decodeCellKey(body)
		if err != nil {
			return rec, err
		}
		rec.Sweep, rec.Cell, rec.Data = sweep, cell, rest
		return rec, nil
	case recFail:
		sweep, cell, rest, err := decodeCellKey(body)
		if err != nil {
			return rec, err
		}
		rec.Sweep, rec.Cell = sweep, cell
		for _, dst := range []*string{&rec.Label, &rec.Class, &rec.Error} {
			var s string
			s, rest, err = decodeString(rest)
			if err != nil {
				return rec, err
			}
			*dst = s
		}
		if len(rest) != 0 {
			return rec, errors.New("trailing bytes in failure record")
		}
		return rec, nil
	default:
		return rec, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

func decodeCellKey(b []byte) (sweep, cell uint32, rest []byte, err error) {
	s, n := binary.Uvarint(b)
	if n <= 0 || s > math.MaxUint32 {
		return 0, 0, nil, errors.New("bad sweep varint")
	}
	b = b[n:]
	c, n := binary.Uvarint(b)
	if n <= 0 || c > math.MaxUint32 {
		return 0, 0, nil, errors.New("bad cell varint")
	}
	return uint32(s), uint32(c), b[n:], nil
}

func decodeString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return "", nil, errors.New("bad string length")
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}

// cellKey addresses one cell across a run's sweeps.
type cellKey struct{ sweep, cell uint32 }

// SweepProgress is one sweep's completion state, for the partial table
// an interrupted run renders.
type SweepProgress struct {
	Sweep  uint32
	Total  int // cells in the sweep; 0 until the sweep began this process
	Done   int // cells with a journaled success (replayed or fresh)
	Failed int // cells whose latest record is a failure
}

// journalFile is what the journal needs of its file; production uses
// *os.File, tests substitute one that blocks or fails on demand.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// errJournalClosed is what an append to a closed journal reports.
var errJournalClosed = errors.New("fleet: journal closed")

// Journal is the write-ahead, per-cell result journal Map writes
// through when a Run carries one. It is safe for concurrent use by the
// fleet workers.
type Journal struct {
	mu       sync.Mutex
	f        journalFile // nil once closed
	path     string
	meta     JournalMeta
	replay   map[cellKey][]byte // cells whose latest record is a success (payload)
	progress map[uint32]*SweepProgress
	sweeps   []uint32 // sweep IDs in begin order

	// Group commit, all under mu. batch holds the sealed records queued
	// since the flusher last took it (they are never written to again),
	// queued how many were ever queued, synced how many a completed flush
	// covers, want the most a barrier waits for. Barriers sleep on wake,
	// the flusher on kick (capacity 1: one pending wake-up is all it needs).
	batch       [][]byte
	queued      uint64
	synced      uint64
	want        uint64
	wake        *sync.Cond
	kick        chan struct{}
	now         func() time.Time // the flusher's clock; tests substitute one
	err         error            // sticky: the first write or sync error
	flusherDone chan struct{}
}

// CreateJournal starts a fresh journal at path. It refuses to clobber
// an existing file: a journal is a run's only durable state, so
// overwriting one must be an explicit `rm`, not a flag typo.
func CreateJournal(path string, meta JournalMeta) (*Journal, error) {
	body, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("fleet: journal %s already exists (resume it, or remove it for a fresh run)", path)
		}
		return nil, err
	}
	if _, err := f.Write([]byte(journalMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return startJournal(f, path, meta, body)
}

// startJournal makes the meta record (body) durable behind the magic: a
// run whose identity is not on disk has nothing to resume.
func startJournal(f journalFile, path string, meta JournalMeta, body []byte) (*Journal, error) {
	j := newJournal(f, path, meta)
	rec := make([]byte, recHeaderLen, recHeaderLen+1+len(body))
	rec = append(append(rec, recMeta), body...)
	j.mu.Lock()
	err := j.appendRecord(rec)
	if err == nil {
		err = j.barrierLocked()
	}
	j.mu.Unlock()
	if err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// ResumeJournal opens an existing journal for resumption: it decodes
// the valid prefix, truncates any torn tail so future appends extend a
// clean file, and loads the replay state. The caller re-runs the
// original sweep (per Meta().Args) with the journal attached; cells
// with a journaled success replay instead of executing.
func ResumeJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	scan, err := ScanJournal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if scan.Valid < int64(len(data)) {
		// Drop the torn tail on disk, not just in memory: the next
		// append must not leave garbage spliced between records.
		if err := os.Truncate(path, scan.Valid); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := newJournal(f, path, scan.Meta)
	for _, rec := range scan.Records {
		key := cellKey{rec.Sweep, rec.Cell}
		switch rec.Kind {
		case recCell:
			j.replay[key] = rec.Data
		case recFail:
			delete(j.replay, key)
		}
	}
	return j, nil
}

// newJournal wraps an open journal file and starts its flusher, which
// Close stops and joins.
func newJournal(f journalFile, path string, meta JournalMeta) *Journal {
	j := &Journal{
		f: f, path: path, meta: meta,
		replay:      make(map[cellKey][]byte),
		progress:    make(map[uint32]*SweepProgress),
		kick:        make(chan struct{}, 1),
		now:         time.Now,
		flusherDone: make(chan struct{}),
	}
	j.wake = sync.NewCond(&j.mu)
	go j.flushLoop(f)
	return j
}

// flushLoop is the journal's one background flusher. It sleeps while the
// batch is empty, and until flushEvery after the previous flush started
// unless a barrier waits or Close was called (j.f is nil); then it takes
// the batch and, with j.mu released, makes it durable with one Write and
// one Sync. Only the records it took are covered, none if either call
// fails. It exits on the first error, or once closed with nothing left to
// flush; Close closes f only after that.
func (j *Journal) flushLoop(f journalFile) {
	defer close(j.flusherDone)
	var last time.Time // when the previous flush started
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.err == nil {
		if len(j.batch) == 0 {
			if j.f == nil {
				return
			}
			j.sleep(nil)
			continue
		}
		if wait := flushEvery - j.now().Sub(last); wait > 0 && j.want <= j.synced && j.f != nil {
			timer := time.NewTimer(wait)
			j.sleep(timer.C)
			timer.Stop()
			continue
		}
		last = j.now()
		recs, covers := j.batch, j.queued
		j.batch = nil
		j.mu.Unlock()
		_, err := f.Write(bytes.Join(recs, nil)) // a short write is an error too (io.Writer)
		if err == nil {
			err = f.Sync()
		}
		j.mu.Lock()
		if err != nil {
			j.fail(err)
			return
		}
		j.synced = covers
		j.wake.Broadcast()
	}
}

// sleep releases j.mu until the flusher is kicked or pace (nil: never)
// fires. Callers hold j.mu.
func (j *Journal) sleep(pace <-chan time.Time) {
	j.mu.Unlock()
	select {
	case <-j.kick:
	case <-pace:
	}
	j.mu.Lock()
}

// wakeFlusher makes the flusher re-examine the journal's state. Callers
// hold j.mu.
func (j *Journal) wakeFlusher() {
	select {
	case j.kick <- struct{}{}:
	default:
	}
}

// fail records the journal's first I/O error and wakes every waiter.
// Callers hold j.mu.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = err
	}
	j.wake.Broadcast()
}

// barrierLocked waits until a completed flush — necessarily one started
// after the call's last record was queued — covers every record queued so
// far, or returns the sticky error. Callers hold j.mu; it sleeps with it
// released, so appenders keep going.
func (j *Journal) barrierLocked() error {
	covers := j.queued
	if j.synced < covers && j.want < covers {
		j.want = covers
		j.wakeFlusher()
	}
	for j.synced < covers && j.err == nil {
		j.wake.Wait()
	}
	return j.err
}

// barrier is barrierLocked for callers that do not hold j.mu: the sweep
// barrier at the end of MapOpts.
func (j *Journal) barrier() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.barrierLocked()
}

// Meta returns the run identity the journal was created with.
func (j *Journal) Meta() JournalMeta { return j.meta }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Replayable returns how many journaled successes are available for
// replay (before any sweep has consumed them).
func (j *Journal) Replayable() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.replay)
}

// Progress returns per-sweep completion counters in sweep-begin order,
// the data behind the INTERRUPTED partial table.
func (j *Journal) Progress() []SweepProgress {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]SweepProgress, 0, len(j.sweeps))
	for _, id := range j.sweeps {
		out = append(out, *j.progress[id])
	}
	return out
}

// Close refuses further appends, waits for the flusher to make every
// queued record durable and exit, and closes the file. It returns the
// journal's sticky error, if any; closing again is a no-op that returns
// the same.
func (j *Journal) Close() error {
	j.mu.Lock()
	f := j.f
	j.f = nil
	j.wakeFlusher()
	j.mu.Unlock()
	<-j.flusherDone
	j.mu.Lock()
	defer j.mu.Unlock()
	if f != nil {
		if err := f.Close(); err != nil {
			j.fail(err)
		}
	}
	return j.err
}

// beginSweep registers a sweep's size for progress accounting.
func (j *Journal) beginSweep(sweep uint32, n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progressLocked(sweep).Total = n
}

func (j *Journal) progressLocked(sweep uint32) *SweepProgress {
	p := j.progress[sweep]
	if p == nil {
		p = &SweepProgress{Sweep: sweep}
		j.progress[sweep] = p
		j.sweeps = append(j.sweeps, sweep)
	}
	return p
}

// lookupCell returns the journaled success for a cell, if any, and
// counts it as done.
func (j *Journal) lookupCell(sweep, cell uint32) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.replay[cellKey{sweep, cell}]
	if ok {
		j.progressLocked(sweep).Done++
	}
	return data, ok
}

// startRecord allocates one record buffer of exactly its final size —
// header, kind, cell key, then body more bytes for the caller to append
// — and fills in everything but the header (appendRecord's job) and the
// body.
func startRecord(kind byte, sweep, cell uint32, body int) []byte {
	rec := make([]byte, recHeaderLen,
		recHeaderLen+1+uvarintLen(uint64(sweep))+uvarintLen(uint64(cell))+body)
	rec = append(rec, kind)
	rec = binary.AppendUvarint(rec, uint64(sweep))
	return binary.AppendUvarint(rec, uint64(cell))
}

// uvarintLen is the number of bytes binary.AppendUvarint emits for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendCell journals one completed cell: encode, then append.
func (j *Journal) appendCell(sweep, cell uint32, v any) error {
	data, err := encodeCellData(v)
	if err != nil {
		return err
	}
	return j.AppendCellData(sweep, cell, data)
}

// AppendCellData journals one completed cell from its already-encoded
// payload — the write-through path for cells a worker executed. A cell
// that already has a journaled success is left untouched (nil error):
// duplicate results from a reassigned worker are byte-identical anyway,
// and first-result-wins keeps the journal free of redundant records.
// The replay entry aliases the record's copy of data, never the
// caller's.
func (j *Journal) AppendCellData(sweep, cell uint32, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	key := cellKey{sweep, cell}
	if _, ok := j.replay[key]; ok {
		return nil
	}
	rec := append(startRecord(recCell, sweep, cell, len(data)), data...)
	if err := j.appendRecord(rec); err != nil {
		return err
	}
	j.replay[key] = rec[len(rec)-len(data):]
	j.progressLocked(sweep).Done++
	return nil
}

// appendFailure journals one failed cell. Like a success, it becomes
// durable at the sweep barrier. Journal I/O errors here are deliberately
// not returned: the cell's real error is already on its way to the
// caller and must not be masked by a bookkeeping failure; being sticky,
// they surface at the sweep barrier. Last-record-wins applies within a
// journal: a failure recorded after a success supersedes it (and vice
// versa), the same order ScanJournal-based replay reconstructs.
func (j *Journal) appendFailure(sweep, cell uint32, label, class, msg string) {
	fields := [...]string{label, class, msg}
	body := 0
	for _, s := range fields {
		body += uvarintLen(uint64(len(s))) + len(s)
	}
	rec := startRecord(recFail, sweep, cell, body)
	for _, s := range fields {
		rec = append(binary.AppendUvarint(rec, uint64(len(s))), s...)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.appendRecord(rec) != nil {
		return
	}
	delete(j.replay, cellKey{sweep, cell})
	j.progressLocked(sweep).Failed++
}

// appendRecord seals rec — a buffer whose first recHeaderLen bytes are
// reserved for the header and whose remainder is the payload — and queues
// it on the batch, which like the replay state only ever reads it. No
// syscall, no copy, and the flusher is woken only if the batch was empty.
// After the first write or sync error, and after Close, it refuses
// without buffering. Callers hold j.mu.
func (j *Journal) appendRecord(rec []byte) error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return errJournalClosed
	}
	payload := rec[recHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	if len(j.batch) == 0 {
		j.wakeFlusher()
	}
	j.batch = append(j.batch, rec)
	j.queued++
	return nil
}
