package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"halfback/internal/fleet"
)

// Crash-injection proof of the resume contract (DESIGN.md §9): kill a
// journaled run at EVERY possible point — after each durable record,
// and mid-record for the torn tails an actual crash leaves — then
// resume from the surviving journal prefix and assert the rendered
// exhibit is byte-identical to an uninterrupted run. Per-cell seeding
// plus last-record-wins replay is what makes this hold; any divergence
// prints the first differing output line. Fig. 15 rides along because
// its cells carry the richest payload (nested series slices plus a
// sim.Duration bucket) — the shape most likely to lose data in the gob
// round-trip.
func TestCrashResumeBitIdentical(t *testing.T) {
	for _, id := range []string{"3", "15", "adversity"} {
		t.Run("fig"+id, func(t *testing.T) { testCrashResume(t, id) })
	}
}

func testCrashResume(t *testing.T, id string) {
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	base := Scale{Trials: Quick.Trials, Horizon: Quick.Horizon, Workers: 4}
	if fleet.RaceEnabled {
		base = Scale{Trials: tiny.Trials, Horizon: tiny.Horizon, Workers: 4}
	}
	want := renderAll(e.Run(seed, base))
	meta := fleet.JournalMeta{Tool: "halfback-sim", Seed: seed, Args: []string{"-fig", id}}

	// Reference journaled run: journaling must not change a single byte.
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.journal")
	j, err := fleet.CreateJournal(fullPath, meta)
	if err != nil {
		t.Fatal(err)
	}
	sc := base
	sc.Run = &fleet.Run{Journal: j}
	if got := renderAll(e.Run(seed, sc)); got != want {
		line, w, g := firstDiff(want, got)
		t.Fatalf("journaling changed the output at line %d:\nwant %q\ngot  %q", line, w, g)
	}
	j.Close()

	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(full)
	if err != nil || scan.TailErr != nil {
		t.Fatalf("reference journal unscannable: %v / %v", err, scan.TailErr)
	}
	if len(scan.Records) == 0 {
		t.Fatal("reference journal recorded no cells")
	}

	// Every record boundary is a possible crash point; every boundary+k
	// is a torn write. The first boundary (just the meta record, zero
	// cells journaled) is the degenerate "crashed before any cell" case.
	var cuts []int64
	for _, rec := range scan.Records {
		cuts = append(cuts, rec.Offset, rec.Offset+3, rec.Offset+rec.Len/2)
	}
	last := scan.Records[len(scan.Records)-1]
	cuts = append(cuts, last.Offset+last.Len)

	for ci, cut := range cuts {
		path := filepath.Join(dir, fmt.Sprintf("cut-%03d.journal", ci))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := fleet.ResumeJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: resume: %v", cut, err)
		}
		rsc := base
		rsc.Run = &fleet.Run{Journal: r}
		got := renderAll(e.Run(seed, rsc))
		r.Close()
		if got != want {
			line, w, g := firstDiff(want, got)
			t.Fatalf("cut=%d bytes: resumed output diverges at line %d:\nwant %q\ngot  %q", cut, line, w, g)
		}
		// The re-run must also have healed the journal: a second resume
		// replays every cell without executing anything.
		h, err := fleet.ResumeJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen healed journal: %v", cut, err)
		}
		if got, wantN := h.Replayable(), len(scan.Records); got != wantN {
			t.Fatalf("cut=%d: healed journal replays %d cells, want %d", cut, got, wantN)
		}
		h.Close()
	}

	// A flipped bit inside the journal (disk corruption, not a torn
	// write) drops the damaged suffix; resume still reproduces the run.
	mid := scan.Records[len(scan.Records)/2]
	corrupt := append([]byte(nil), full...)
	corrupt[mid.Offset+recHeaderLenForTest+1] ^= 0x10
	path := filepath.Join(dir, "corrupt.journal")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := fleet.ResumeJournal(path)
	if err != nil {
		t.Fatalf("resume corrupted journal: %v", err)
	}
	rsc := base
	rsc.Run = &fleet.Run{Journal: r}
	got := renderAll(e.Run(seed, rsc))
	r.Close()
	if got != want {
		line, w, g := firstDiff(want, got)
		t.Fatalf("corrupt-CRC resume diverges at line %d:\nwant %q\ngot  %q", line, w, g)
	}
}

// recHeaderLenForTest mirrors the journal's fixed record header size
// (length + CRC) without exporting it.
const recHeaderLenForTest = 8
