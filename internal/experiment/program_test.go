package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
	"halfback/internal/sim"
)

// programIDs is a selection whose exhibits share sweeps: Figs. 1, 12, 17
// and ext's capacity half read one capacity sweep (13 curves between
// them, 8 of which Fig. 1 and Fig. 12 both plot), Figs. 5–8 read one
// PlanetLab sweep, and Figs. 3 and 15 and ext's size half make sweeps
// of their own in between.
const programIDs = "1,3,5,6,7,8,12,15,17,ext"

// TestProgramMatchesOneByOne runs the selection as one Program and
// requires it to render byte for byte what its entries render one by
// one — serially, at -workers 8, resumed from truncated journals and
// over two loopback workers — while the serial program executes fewer
// events than the entries do one by one.
func TestProgramMatchesOneByOne(t *testing.T) {
	entries, err := lookupAll(programIDs)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	base := Scale{Trials: 0.01, Horizon: 0.02, Workers: 1}
	if fleet.RaceEnabled {
		base.Horizon = 0.01
	}
	program := func(sc Scale) string {
		var b strings.Builder
		for _, e := range Program(entries) {
			b.WriteString(renderAll(e.Run(seed, sc)))
		}
		return b.String()
	}
	check := func(mode, want, got string) {
		t.Helper()
		if got != want {
			line, w, g := firstDiff(want, got)
			t.Fatalf("%s: the program diverges from the entries one by one at line %d:\nwant %q\ngot  %q", mode, line, w, g)
		}
	}

	var want strings.Builder
	before := sim.ProcessedTotal()
	for _, e := range entries {
		want.WriteString(renderAll(e.Run(seed, base)))
	}
	oneByOne := sim.ProcessedTotal() - before
	before = sim.ProcessedTotal()
	check("serial", want.String(), program(base))
	if shared := sim.ProcessedTotal() - before; shared >= oneByOne {
		t.Errorf("the program executed %d events, the entries one by one %d: no sweep was shared", shared, oneByOne)
	}

	parallel := base
	parallel.Workers = 8
	check("workers=8", want.String(), program(parallel))

	t.Run("resumed", func(t *testing.T) {
		dir := t.TempDir()
		fullPath := filepath.Join(dir, "full.journal")
		j, err := fleet.CreateJournal(fullPath, distMeta(programIDs, seed, base))
		if err != nil {
			t.Fatal(err)
		}
		sc := base
		sc.Workers = 2
		sc.Run = &fleet.Run{Journal: j}
		check("journaled", want.String(), program(sc))
		j.Close()
		full, err := os.ReadFile(fullPath)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := fleet.ScanJournal(full)
		if err != nil || len(scan.Records) < 4 {
			t.Fatalf("reference journal: %v, %d records", err, len(scan.Records))
		}
		// A quarter in is inside the capacity sweep, three quarters in
		// inside the PlanetLab one; +3 tears the record.
		for _, rec := range []fleet.JournalRecord{scan.Records[len(scan.Records)/4], scan.Records[3*len(scan.Records)/4]} {
			path := filepath.Join(dir, "cut.journal")
			if err := os.WriteFile(path, full[:rec.Offset+3], 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := fleet.ResumeJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			rsc := sc
			rsc.Run = &fleet.Run{Journal: r}
			check("resumed", want.String(), program(rsc))
			r.Close()
		}
	})

	t.Run("distributed", func(t *testing.T) {
		addrs := startLocalWorkers(t, 2)
		j, err := fleet.CreateJournal(filepath.Join(t.TempDir(), "run.journal"), distMeta(programIDs, seed, base))
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		coord, err := dist.Connect(addrs, j, j.Meta(), dist.Options{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		remote := &remoteCount{Dispatcher: coord}
		dsc := base
		dsc.Run = &fleet.Run{Journal: j, Dispatch: remote}
		dsc.Workers = coord.Slots()
		check("distributed", want.String(), program(dsc))
		if n, done := int(remote.n.Load()), journalDone(j); n != done || n == 0 {
			t.Fatalf("%d cells resolved remotely, the run completed %d", n, done)
		}
	})
}

// A shared sweep with a failed cell is made once, and every reader fails
// with its error: a reader that made the sweep again would shift the
// numbers of the program's later sweeps away from a worker's, whose
// sweeps never fail.
func TestProgramSharedSweepFailsEveryReader(t *testing.T) {
	plans := 0
	owner := &Spec{ID: "t", Plan: func(uint64, Scale, []string) ([]Axis, func([]int) (fleet.Row, error)) {
		plans++
		return []Axis{{"a", []string{"a0", "a1"}}}, func(at []int) (fleet.Row, error) {
			if at[0] == 1 {
				return nil, errors.New("boom")
			}
			return fleet.Row{0}, nil
		}
	}}
	reader := &Spec{ID: "u", reads: owner}
	for _, e := range Program([]Entry{entry(owner), entry(reader)}) {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "(t a=a1): boom") {
					t.Errorf("exhibit %s: panic %v, want the failed cell's error", e.ID, r)
				}
			}()
			e.Run(1, Scale{Workers: 1})
		}()
	}
	if plans != 1 {
		t.Errorf("the shared sweep was made %d times, want once", plans)
	}
}
