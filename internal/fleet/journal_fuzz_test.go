package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeedJournals builds the representative journal images the fuzz
// corpus starts from: a clean multi-record journal, torn and bit-flipped
// variants, and degenerate headers. The committed corpus under
// testdata/fuzz/FuzzJournalDecode is generated from this list (see
// TestGenerateFuzzSeedCorpus).
func fuzzSeedJournals(tb testing.TB) [][]byte {
	dir := tb.(interface{ TempDir() string }).TempDir()
	path := filepath.Join(dir, "seed.journal")
	j, err := CreateJournal(path, JournalMeta{Tool: "fuzz", Seed: 7, Args: []string{"-fig", "3"}})
	if err != nil {
		tb.Fatal(err)
	}
	j.beginSweep(0, 3)
	if err := j.appendCell(0, 0, &Row{1.25}); err != nil {
		tb.Fatal(err)
	}
	j.appendFailure(0, 1, "cell-1", ClassPanicked, "boom\ngoroutine 1 [running]")
	if err := j.appendCell(1, 2, &Row{-3, 0.5}); err != nil {
		tb.Fatal(err)
	}
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}

	seeds := [][]byte{
		nil,
		[]byte(journalMagic),
		[]byte("NOTAJRNL"),
		clean,
		clean[:len(clean)-5],                   // torn mid-record
		clean[:len(journalMagic)+3],            // torn mid-meta-header
		append(bytes.Clone(clean), 0xff, 0x00), // trailing garbage
		append(bytes.Clone(clean), clean[8:40]...), // duplicate partial record
	}
	// Bit flips across the whole image exercise every CRC path.
	for _, pos := range []int{0, 9, 12, 20, len(clean) - 1} {
		b := bytes.Clone(clean)
		b[pos] ^= 0x40
		seeds = append(seeds, b)
	}
	// A record declaring a huge payload length must not allocate or read
	// out of bounds.
	huge := bytes.Clone(clean)
	binary.LittleEndian.PutUint32(huge[len(journalMagic):], 0xffffffff)
	seeds = append(seeds, huge)
	return seeds
}

// FuzzJournalDecode asserts the decoder's safety contract on arbitrary
// bytes: never panic, never read out of bounds, hard-error only when no
// meta record survives, and — the crash-recovery property — the valid
// prefix it reports always re-scans cleanly to the identical records.
func FuzzJournalDecode(f *testing.F) {
	for _, s := range fuzzSeedJournals(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := ScanJournal(data)
		if err != nil {
			if scan != nil {
				t.Fatal("hard error must not return a scan")
			}
			return // malformed input errored, as documented
		}
		if scan.Valid < int64(len(journalMagic)) || scan.Valid > int64(len(data)) {
			t.Fatalf("Valid = %d outside [magic, len(data)=%d]", scan.Valid, len(data))
		}
		if (scan.TailErr == nil) != (scan.Valid == int64(len(data))) {
			t.Fatalf("TailErr %v inconsistent with Valid %d / len %d", scan.TailErr, scan.Valid, len(data))
		}
		for _, rec := range scan.Records {
			if rec.Offset < int64(len(journalMagic)) || rec.Offset+rec.Len > scan.Valid {
				t.Fatalf("record at %d+%d escapes the valid prefix %d", rec.Offset, rec.Len, scan.Valid)
			}
		}
		// Torn-tail recovery: the valid prefix is a clean journal with
		// the same meta and records.
		again, err := ScanJournal(data[:scan.Valid])
		if err != nil {
			t.Fatalf("valid prefix does not rescan: %v", err)
		}
		if again.TailErr != nil {
			t.Fatalf("valid prefix rescans torn: %v", again.TailErr)
		}
		if len(again.Records) != len(scan.Records) {
			t.Fatalf("rescan has %d records, first scan %d", len(again.Records), len(scan.Records))
		}
		for i := range again.Records {
			if !bytes.Equal(again.Records[i].Data, scan.Records[i].Data) ||
				again.Records[i].Kind != scan.Records[i].Kind {
				t.Fatalf("record %d differs between scan and rescan", i)
			}
		}
	})
}

// TestGenerateFuzzSeedCorpus (re)writes the committed seed corpus. Run
// manually after changing the journal format:
//
//	HALFBACK_GEN_CORPUS=1 go test ./internal/fleet -run TestGenerateFuzzSeedCorpus
func TestGenerateFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("HALFBACK_GEN_CORPUS") == "" {
		t.Skip("set HALFBACK_GEN_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeedJournals(t) {
		// Go fuzz corpus file format: version line + one quoted value
		// per fuzz argument.
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
