package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
	"halfback/internal/fleet/dist/chaos"
)

// The chaos schedule suite (DESIGN.md §13): seeded fault schedules —
// refusals, resets, stalls, one-way partitions, trickle — injected into
// every coordinator→worker connection of a real distributed run. Under
// every schedule the run must produce (a) the exact serial rendering
// and (b) a canonical journal identical to a fault-free journaled run:
// faults may reorder or duplicate work, but may not shift a byte of
// recorded state. Journals land in $HALFBACK_CHAOS_DIR when set (CI
// uploads them on failure) so a failing seed is diagnosable offline.

// chaosSeedCount is schedules per exhibit: 32 (×2 exhibits = 64) in a
// normal run, a slice of that under the race detector's ~10× slowdown.
func chaosSeedCount() int {
	if fleet.RaceEnabled {
		return 6
	}
	return 32
}

// chaosDir picks where one schedule's journals live: a subdirectory of
// $HALFBACK_CHAOS_DIR when set, else a per-test temp dir.
func chaosDir(t *testing.T, name string) string {
	if base := os.Getenv("HALFBACK_CHAOS_DIR"); base != "" {
		dir := filepath.Join(base, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// chaosReference runs the exhibit serially with a journal attached and
// returns the rendering plus the canonical journal — the fault-free
// fixed point every schedule must reproduce.
func chaosReference(t *testing.T, e Entry, id string, seed uint64, sc Scale) (string, []fleet.JournalRecord) {
	t.Helper()
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	j, err := fleet.CreateJournal(refPath, distMeta(id, seed, sc))
	if err != nil {
		t.Fatal(err)
	}
	rsc := sc
	rsc.Run = &fleet.Run{Journal: j}
	want := renderAll(e.Run(seed, rsc))
	j.Close()
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	canon := scan.Canonical()
	if len(canon) == 0 {
		t.Fatalf("fig %s journaled no cells — the chaos identity check would be vacuous", id)
	}
	return want, canon
}

// TestChaosSchedules is the acceptance gate for the hardened fabric:
// chaosSeedCount() seeded schedules × two journaled exhibits, each a
// full distributed run with chaos.FromSeed faults on every connection.
// Every seed either converges to byte-identical results or names
// itself in the failure.
func TestChaosSchedules(t *testing.T) {
	for _, id := range []string{"3", "15"} {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			const runSeed = 1
			sc := Scale{Trials: tiny.Trials, Horizon: tiny.Horizon, Workers: 4}
			want, wantCanon := chaosReference(t, e, id, runSeed, sc)

			for s := 0; s < chaosSeedCount(); s++ {
				seed := uint64(s)
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					dir := chaosDir(t, fmt.Sprintf("fig%s-seed%d", id, seed))
					// Even seeds run keyed: the handshake must survive the
					// same faults the RPC stream does.
					var key []byte
					if seed%2 == 0 {
						key = []byte("chaos-suite-key")
					}
					addrs := startLocalWorkers(t, 2, key)
					jpath := filepath.Join(dir, "run.journal")
					j, err := fleet.CreateJournal(jpath, distMeta(id, runSeed, sc))
					if err != nil {
						t.Fatal(err)
					}
					defer j.Close()

					// The heal clock starts at New: build the injector only
					// once the fabric is ready to dial through it.
					inj := chaos.New(seed, chaos.FromSeed(seed))
					coord, err := dist.Connect(addrs, j, j.Meta(), dist.Options{
						Dial:             inj.Dialer(),
						Key:              key,
						RedialAttempts:   8,
						RedialBackoff:    20 * time.Millisecond,
						ConfigureTimeout: 5 * time.Second,
						RunCellTimeout:   5 * time.Second,
						HeartbeatEvery:   100 * time.Millisecond,
						HeartbeatMisses:  5,
						Logf:             t.Logf,
					})
					if err != nil {
						t.Fatalf("Connect under schedule %d: %v", seed, err)
					}
					defer coord.Close()

					dsc := sc
					dsc.Run = &fleet.Run{Journal: j, Dispatch: coord}
					dsc.Workers = coord.Slots()
					got := renderAll(e.Run(runSeed, dsc))
					if got != want {
						line, w, g := firstDiff(want, got)
						t.Fatalf("schedule %d rendering diverges from serial at line %d:\nwant %q\ngot  %q\n(%s)",
							seed, line, w, g, coord.Metrics())
					}

					// Journal identity: the chaos run's canonical journal is
					// the fault-free journal, record for record.
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					data, err := os.ReadFile(jpath)
					if err != nil {
						t.Fatal(err)
					}
					scan, err := fleet.ScanJournal(data)
					if err != nil {
						t.Fatal(err)
					}
					if canon := scan.Canonical(); !reflect.DeepEqual(canon, wantCanon) {
						t.Fatalf("schedule %d canonical journal diverges from fault-free run: %d records vs %d\n(%s)",
							seed, len(canon), len(wantCanon), coord.Metrics())
					}
					t.Logf("schedule %d ok: %s", seed, coord.Metrics())
				})
			}
		})
	}
}
