package experiment

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// The cheap exhibits are pinned to golden renderings at Quick scale,
// seed 1: any change to the simulator core, the schemes, the PRNG or
// the table formatter that shifts a single byte of output fails here
// before it can silently invalidate recorded results. Regenerate
// deliberately with:
//
//	go test ./internal/experiment -run TestGoldenTables -update
//
// The runs use the default worker count, so a green golden test on a
// multi-core machine is also a spot check of the parallel path against
// renderings produced by the serial code.
func TestGoldenTables(t *testing.T) {
	for _, id := range []string{"2", "3", "adversity", "blackout", "misbehavior"} {
		name := id
		if id[0] >= '0' && id[0] <= '9' {
			name = "fig" + id
		}
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+"_quick.golden", renderAll(e.Run(1, Quick)))
		})
	}
}

// checkGolden compares got with testdata/<file>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		n, w, g := firstDiff(string(want), got)
		t.Fatalf("diverges from %s at line %d:\n  golden:  %q\n  current: %q", path, n, w, g)
	}
}

// Every exhibit's executed-event count is bit-exact for a pinned seed
// and scale, so a count that moves means the simulation did something
// else — a behaviour change, not noise — even where no table shows it.
// The golden holds one "<id> <events> <sha256>" line per Registry()
// entry at seed 1, scale 0.05, run serially; the digest is that of the
// rendered tables, so exhibits without a table golden of their own are
// pinned byte for byte too. Its last line, "all", is the whole registry
// run as one Program: every shared sweep made once, and the digest of
// the entries' renderings in turn. Like the table goldens it is
// regenerated only on purpose (-update), by a change that says why the
// lines moved.
func TestExecutedEventCounts(t *testing.T) {
	if testing.Short() || fleet.RaceEnabled {
		t.Skip("full-registry runs (~30 s); skipped under -short and the race detector")
	}
	sc := Scale{Trials: 0.05, Horizon: 0.05, Workers: 1}
	var got, all strings.Builder
	for _, e := range Registry() {
		before := sim.ProcessedTotal()
		res := e.Run(1, sc)
		fmt.Fprintf(&got, "%s %d %x\n", e.ID, sim.ProcessedTotal()-before, sha256.Sum256([]byte(renderAll(res))))
	}
	before := sim.ProcessedTotal()
	for _, e := range Program(Registry()) {
		all.WriteString(renderAll(e.Run(1, sc)))
	}
	fmt.Fprintf(&got, "all %d %x\n", sim.ProcessedTotal()-before, sha256.Sum256([]byte(all.String())))
	checkGolden(t, "events_s1_scale005.golden", got.String())
}
