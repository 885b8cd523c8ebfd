package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func testMeta() JournalMeta {
	return JournalMeta{
		Tool: "halfback-sim",
		Seed: 42,
		Args: []string{"-fig", "3", "-seed", "42", "-scale", "0.25"},
	}
}

type cellResult struct {
	Name  string
	Value float64
}

// buildJournal writes a journal with the given per-cell outcomes (nil
// error = success) and returns its path.
func buildJournal(t *testing.T, outcomes []error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.beginSweep(0, len(outcomes))
	for i, oerr := range outcomes {
		if oerr != nil {
			j.appendFailure(0, uint32(i), fmt.Sprintf("cell-%d", i), ClassError, oerr.Error())
			continue
		}
		if err := j.appendCell(0, uint32(i), &cellResult{Name: fmt.Sprintf("cell-%d", i), Value: float64(i) * 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanPath scans a journal file, failing the test on hard errors.
func scanPath(t *testing.T, path string) *JournalScan {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return scan
}

func TestJournalCreateResumeRoundTrip(t *testing.T) {
	path := buildJournal(t, []error{nil, nil, errors.New("boom"), nil})

	j, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got, want := j.Meta(), testMeta(); got.Tool != want.Tool ||
		got.Seed != want.Seed || strings.Join(got.Args, " ") != strings.Join(want.Args, " ") {
		t.Fatalf("meta round-trip: got %+v want %+v", got, want)
	}
	if got := j.Replayable(); got != 3 {
		t.Fatalf("Replayable = %d, want 3 (cell 2 failed)", got)
	}
	// Successes replay with their original contents; the failed cell
	// does not replay.
	for _, i := range []uint32{0, 1, 3} {
		data, ok := j.lookupCell(0, i)
		if !ok {
			t.Fatalf("cell %d missing from replay", i)
		}
		var got cellResult
		if err := decodeCell(data, &got); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if want := (cellResult{Name: fmt.Sprintf("cell-%d", i), Value: float64(i) * 1.5}); got != want {
			t.Fatalf("cell %d replayed %+v, want %+v", i, got, want)
		}
	}
	if _, ok := j.lookupCell(0, 2); ok {
		t.Fatal("failed cell 2 must not replay")
	}
}

func TestJournalRefusesClobber(t *testing.T) {
	path := buildJournal(t, []error{nil})
	if _, err := CreateJournal(path, testMeta()); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("CreateJournal over existing file: err = %v, want already-exists refusal", err)
	}
}

func TestJournalLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Cell 0: failure then success (a resumed re-execution recovered
	// it) — must replay as the success.
	j.appendFailure(0, 0, "cell-0", ClassStalled, "first attempt stalled")
	if err := j.appendCell(0, 0, &cellResult{Name: "recovered", Value: 7}); err != nil {
		t.Fatal(err)
	}
	// Cell 1: success then failure — must re-execute, not replay the
	// stale success.
	if err := j.appendCell(0, 1, &cellResult{Name: "stale", Value: 1}); err != nil {
		t.Fatal(err)
	}
	j.appendFailure(0, 1, "cell-1", ClassError, "superseded")
	j.Close()

	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, ok := r.lookupCell(0, 0)
	if !ok {
		t.Fatal("recovered cell 0 must replay")
	}
	var got cellResult
	if err := decodeCell(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "recovered" {
		t.Fatalf("cell 0 replayed %+v, want the later success", got)
	}
	if _, ok := r.lookupCell(0, 1); ok {
		t.Fatal("cell 1's stale success must not replay past the later failure")
	}
}

// Canonical is the journal-identity relation the chaos suite asserts:
// two journals holding the same last record per cell, appended in
// different physical orders, reduce to the same address-sorted records,
// file offsets cleared.
func TestJournalCanonical(t *testing.T) {
	type op struct {
		sweep, cell uint32
		fail        string // failure message; "" appends a success
	}
	canonical := func(ops []op) []JournalRecord {
		path := filepath.Join(t.TempDir(), "run.journal")
		j, err := CreateJournal(path, testMeta())
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			if o.fail != "" {
				j.appendFailure(o.sweep, o.cell, "label", ClassError, o.fail)
			} else if err := j.appendCell(o.sweep, o.cell, &cellResult{Name: fmt.Sprint(o.sweep, o.cell)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return scanPath(t, path).Canonical()
	}
	a := canonical([]op{{1, 0, ""}, {0, 2, "stalled"}, {0, 1, ""}, {0, 2, ""}, {0, 3, ""}, {0, 3, "late failure"}})
	b := canonical([]op{{0, 3, "late failure"}, {0, 2, ""}, {0, 1, ""}, {1, 0, ""}})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same cells in another order: canonical forms differ:\n%+v\n%+v", a, b)
	}
	want := []struct {
		sweep, cell uint32
		kind        byte
	}{{0, 1, recCell}, {0, 2, recCell}, {0, 3, recFail}, {1, 0, recCell}}
	if len(a) != len(want) {
		t.Fatalf("canonical = %+v, want %d records", a, len(want))
	}
	for i, w := range want {
		if r := a[i]; r.Sweep != w.sweep || r.Cell != w.cell || r.Kind != w.kind || r.Offset != 0 || r.Len != 0 {
			t.Fatalf("canonical[%d] = %+v, want s%dc%d kind %d with no offsets", i, r, w.sweep, w.cell, w.kind)
		}
	}
}

// Truncating the journal at every byte length must either resume
// cleanly with the records fully contained in the prefix (torn tails
// are silently dropped) or — when even the meta record is incomplete —
// fail with ErrJournalCorrupt. Nothing in between, and never a panic.
func TestJournalTornTailEveryTruncation(t *testing.T) {
	path := buildJournal(t, []error{nil, errors.New("x"), nil})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ScanJournal(full)
	if err != nil || clean.TailErr != nil {
		t.Fatalf("pristine journal does not scan: %v / %v", err, clean.TailErr)
	}
	if len(clean.Records) != 3 {
		t.Fatalf("pristine journal has %d records, want 3", len(clean.Records))
	}
	metaEnd := clean.Records[0].Offset // first cell record starts after meta

	for cut := 0; cut <= len(full); cut++ {
		scan, err := ScanJournal(full[:cut])
		if int64(cut) < metaEnd {
			if err == nil || !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("cut=%d (inside magic/meta): err = %v, want ErrJournalCorrupt", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		// The decoded records must be exactly those fully below the cut.
		want := 0
		atBoundary := int64(cut) == metaEnd
		for _, rec := range clean.Records {
			if rec.Offset+rec.Len <= int64(cut) {
				want++
				atBoundary = atBoundary || rec.Offset+rec.Len == int64(cut)
			}
		}
		if len(scan.Records) != want {
			t.Fatalf("cut=%d: %d records, want %d", cut, len(scan.Records), want)
		}
		if atBoundary != (scan.TailErr == nil) {
			t.Fatalf("cut=%d: boundary=%v but TailErr=%v", cut, atBoundary, scan.TailErr)
		}
		if scan.TailErr != nil && scan.Valid >= int64(cut) {
			t.Fatalf("cut=%d: torn tail but Valid=%d covers the cut", cut, scan.Valid)
		}
	}
}

// ResumeJournal must truncate a torn tail on disk so subsequent appends
// extend a clean record stream.
func TestResumeTruncatesTornTailAndAppends(t *testing.T) {
	path := buildJournal(t, []error{nil, nil})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.journal")
	// Cut mid-way through the last record, then splice garbage on top —
	// the shape an interrupted write plus a partial page flush leaves.
	if err := os.WriteFile(torn, append(full[:len(full)-3], 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := ResumeJournal(torn)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Replayable(); got != 1 {
		t.Fatalf("Replayable = %d, want 1 (second record torn)", got)
	}
	if err := j.appendCell(0, 1, &cellResult{Name: "rewritten", Value: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TailErr != nil {
		t.Fatalf("journal still torn after resume+append: %v", scan.TailErr)
	}
	if len(scan.Records) != 2 {
		t.Fatalf("%d records after resume+append, want 2", len(scan.Records))
	}
}

func TestScanJournalRejectsCorruption(t *testing.T) {
	path := buildJournal(t, []error{nil})
	full, _ := os.ReadFile(path)

	for name, mutate := range map[string]func([]byte) []byte{
		"empty":     func(b []byte) []byte { return nil },
		"bad magic": func(b []byte) []byte { b[0] ^= 0xff; return b },
		"meta crc":  func(b []byte) []byte { b[len(journalMagic)+4] ^= 0xff; return b },
	} {
		b := append([]byte(nil), full...)
		if _, err := ScanJournal(mutate(b)); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
	}

	// A flipped bit inside a cell record is a tail error, not a hard
	// one: the meta record still identifies the run.
	b := append([]byte(nil), full...)
	b[len(b)-1] ^= 0xff
	scan, err := ScanJournal(b)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TailErr == nil || len(scan.Records) != 0 {
		t.Fatalf("flipped cell byte: records=%d TailErr=%v, want 0 records + tail error",
			len(scan.Records), scan.TailErr)
	}
}

// A journal an older build wrote is refused with both formats named,
// before anything writes to it: resuming it leaves the file
// byte-identical. Format HBJRNL01 carried gob cell payloads; HBJRNL02
// has this format's records but numbered a multi-exhibit program's
// sweeps one per exhibit; HBJRNL03 still carried gob payloads for the
// cells of Figs. 3 and 15.
func TestScanJournalRefusesOlderFormat(t *testing.T) {
	path := buildJournal(t, []error{nil, errors.New("boom")})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"HBJRNL01", "HBJRNL02", "HBJRNL03"} {
		old := append([]byte(format), full[len(journalMagic):len(full)-3]...) // torn, too
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, err := range map[string]error{
			"ScanJournal": func() error { _, err := ScanJournal(old); return err }(),
			"ResumeJournal": func() error {
				j, err := ResumeJournal(path)
				if err == nil {
					j.Close()
				}
				return err
			}(),
		} {
			if err == nil || !strings.Contains(err.Error(), `"`+format+`"`) || !strings.Contains(err.Error(), `"HBJRNL04"`) {
				t.Errorf("%s: err = %v, want a refusal naming %s and HBJRNL04", name, err, format)
			}
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
			t.Fatalf("the refused %s journal changed on disk (err %v)", format, err)
		}
	}
}

// A CRC-valid record with a malformed payload (writer bug, not crash
// artifact) must stop the scan without panicking.
func TestScanJournalMalformedButChecksummedRecord(t *testing.T) {
	path := buildJournal(t, nil)
	full, _ := os.ReadFile(path)
	payload := []byte{recFail, 0x00, 0x01} // fail record missing its strings
	rec := make([]byte, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	copy(rec[recHeaderLen:], payload)
	scan, err := ScanJournal(append(full, rec...))
	if err != nil {
		t.Fatal(err)
	}
	if scan.TailErr == nil {
		t.Fatal("malformed record not reported")
	}
}

// End-to-end through the engine: a journaled Map, resumed, replays
// every completed cell without re-executing it and re-runs only the
// failed one — with outputs identical to the uninterrupted run.
func TestMapJournalReplayDoesNotReExecute(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	fn := func(fail bool) func(i, attempt int) (cellResult, error) {
		return func(i, attempt int) (cellResult, error) {
			if fail && i == 2 {
				return cellResult{}, errors.New("transient outage")
			}
			return cellResult{Name: fmt.Sprintf("u-%d", i), Value: float64(i * i)}, nil
		}
	}

	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	first, err := MapOpts(Options{Workers: 2, Run: &Run{Journal: j}}, 5, fn(true))
	if err == nil {
		t.Fatal("want cell-2 failure on first run")
	}
	j.Close()

	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var executed atomic.Int32
	resumed, err := MapOpts(Options{Workers: 2, Run: &Run{Journal: r}}, 5,
		func(i, attempt int) (cellResult, error) {
			executed.Add(1)
			return fn(false)(i, attempt)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("%d cells re-executed on resume, want only the failed one", got)
	}
	want := []cellResult{{"u-0", 0}, {"u-1", 1}, {"u-2", 4}, {"u-3", 9}, {"u-4", 16}}
	for i := range want {
		if resumed[i] != want[i] {
			t.Fatalf("resumed[%d] = %+v, want %+v (first run had %+v)", i, resumed[i], want[i], first[i])
		}
	}

	p := r.Progress()
	if len(p) != 1 || p[0].Done != 5 || p[0].Total != 5 || p[0].Failed != 0 {
		t.Fatalf("progress after resume = %+v, want 5/5 done", p)
	}
}

// Sweep IDs are assigned in Map-call order within a Run, so the second
// sweep's cells replay from the second sweep's records.
func TestRunSweepNumberingAcrossMaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	run := &Run{Journal: j}
	for s := 0; s < 3; s++ {
		if _, err := MapOpts(Options{Run: run}, 2, func(i, attempt int) (cellResult, error) {
			return cellResult{Name: fmt.Sprintf("s%d-c%d", s, i)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	run2 := &Run{Journal: r}
	for s := 0; s < 3; s++ {
		out, err := MapOpts(Options{Run: run2}, 2, func(i, attempt int) (cellResult, error) {
			t.Fatalf("sweep %d cell %d re-executed despite full journal", s, i)
			return cellResult{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if want := fmt.Sprintf("s%d-c%d", s, i); v.Name != want {
				t.Fatalf("sweep %d cell %d replayed %q, want %q", s, i, v.Name, want)
			}
		}
	}
}

// Failures lists the cells whose latest record is a failure, in address
// order, each with its label, class and error: what -repro re-runs and
// prints. A failure a later success superseded is not listed.
func TestJournalScanFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	run := &Run{Journal: j}
	for s := 0; s < 2; s++ {
		_, err = MapOpts(Options{Workers: 2, Run: run, Label: func(i int) string { return fmt.Sprintf("universe-%d-%d", s, i) }},
			4, func(i, attempt int) (int, error) {
				switch {
				case i == 3-s:
					panic("universe exploded")
				case s == 0 && i == 0:
					return 0, errors.New("boom")
				}
				return i, nil
			})
		if err == nil {
			t.Fatal("want failure")
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A resumed run's success supersedes sweep 0's failed cell 0.
	if j, err = ResumeJournal(path); err != nil {
		t.Fatal(err)
	}
	if err := j.appendCell(0, 0, new(int)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got := scanPath(t, path).Failures()
	if len(got) != 2 {
		t.Fatalf("%d failures, want 2: %+v", len(got), got)
	}
	for k, want := range []struct{ sweep, cell uint32 }{{0, 3}, {1, 2}} {
		f := got[k]
		if f.Sweep != want.sweep || f.Cell != want.cell || f.Class != ClassPanicked ||
			f.Label != fmt.Sprintf("universe-%d-%d", want.sweep, want.cell) || !strings.Contains(f.Error, "universe exploded") {
			t.Errorf("failure %d = %+v, want sweep %d cell %d", k, f, want.sweep, want.cell)
		}
	}
}

// A canceled journaled run keeps everything that finished; resuming
// completes the rest. This is the SIGINT drain path end to end.
func TestJournalResumeAfterCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	_, err = MapOpts(Options{Ctx: ctx, Workers: 1, Run: &Run{Journal: j}}, 6,
		func(i, attempt int) (int, error) {
			if ran.Add(1) == 3 {
				cancel() // "SIGINT" lands while cell 2 is in flight
			}
			return i * 2, nil
		})
	j.Close()
	if !slices.ContainsFunc(JobErrors(err), func(je *JobError) bool { return je.Class() == ClassCanceled }) {
		t.Fatalf("canceled run reports no canceled cell: %v", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d cells ran before drain, want 3 (serial)", got)
	}

	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Replayable(); got != 3 {
		t.Fatalf("Replayable after cancel = %d, want the 3 drained cells", got)
	}
	out, err := MapOpts(Options{Run: &Run{Journal: r}}, 6,
		func(i, attempt int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d after resume, want %d", i, v, i*2)
		}
	}
}
