package dist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/fleet/dist/chaos"
)

// The chaos schedule suite (DESIGN.md §13): seeded fault schedules —
// refusals, resets, stalls, one-way partitions, trickle — injected into
// every coordinator→worker connection of a real distributed run of two
// exhibits. Under every schedule the run must produce (a) the exact
// serial rendering and (b) a canonical journal identical to a
// fault-free journaled run: faults may reorder or duplicate work, but
// may not shift a byte of recorded state. Journals land in
// $HALFBACK_CHAOS_DIR when set (CI uploads them on failure) so a
// failing seed is diagnosable offline.

// chaosScale is the exhibit scale every schedule and its fault-free
// reference run at.
var chaosScale = experiment.Scale{Trials: 0.01, Horizon: 0.1, Workers: 4}

// chaosSeedCount is schedules per exhibit: 32 (×2 exhibits = 64) in a
// normal run, a slice of that under the race detector's ~10× slowdown.
func chaosSeedCount() int {
	if fleet.RaceEnabled {
		return 6
	}
	return 32
}

// chaosMeta encodes what a worker needs to re-derive the run — the
// seed, and the exhibit and scale via Args — into the journal meta
// that Configure ships.
func chaosMeta(id string, seed uint64, sc experiment.Scale) fleet.JournalMeta {
	return fleet.JournalMeta{
		Tool: "dist-chaos-test", Seed: seed,
		Args: []string{
			id,
			strconv.FormatFloat(sc.Trials, 'g', -1, 64),
			strconv.FormatFloat(sc.Horizon, 'g', -1, 64),
		},
	}
}

// chaosStart is the worker-side program: re-derive the exhibit run
// from the journal meta and execute it with the session's hook
// attached. Its control flow is the coordinator's — one Entry.Run call
// — so (sweep, cell) addressing agrees.
func chaosStart(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error {
	if len(meta.Args) != 3 {
		return fmt.Errorf("meta args %q: want exhibit, trials, horizon", meta.Args)
	}
	trials, err := strconv.ParseFloat(meta.Args[1], 64)
	if err != nil {
		return err
	}
	horizon, err := strconv.ParseFloat(meta.Args[2], 64)
	if err != nil {
		return err
	}
	e, err := experiment.Lookup(meta.Args[0])
	if err != nil {
		return err
	}
	sc := experiment.Scale{Trials: trials, Horizon: horizon, Workers: 4, Ctx: ctx, Run: run}
	// Cell failures surface as journaled outcomes on the coordinator; a
	// sweep's aggregate panic must not kill the worker program.
	defer func() { recover() }()
	e.Run(meta.Seed, sc)
	return nil
}

// render flattens an exhibit's tables into the exact text a user sees.
func render(res experiment.Result) string {
	var b strings.Builder
	for _, tb := range res.Tables() {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDiff locates the first line where two renderings diverge.
func firstDiff(a, b string) (line int, wantLine, gotLine string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return i + 1, x, y
		}
	}
	return 0, "", ""
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

// canonicalJournal reads a closed journal back in canonical form.
func canonicalJournal(t *testing.T, path string) []fleet.JournalRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return scan.Canonical()
}

// chaosReference runs the exhibit serially with a journal attached and
// returns the rendering plus the canonical journal — the fault-free
// fixed point every schedule must reproduce.
func chaosReference(t *testing.T, e experiment.Entry, id string, seed uint64) (string, []fleet.JournalRecord) {
	t.Helper()
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	j, err := fleet.CreateJournal(refPath, chaosMeta(id, seed, chaosScale))
	if err != nil {
		t.Fatal(err)
	}
	rsc := chaosScale
	rsc.Run = &fleet.Run{Journal: j}
	want := render(e.Run(seed, rsc))
	j.Close()
	canon := canonicalJournal(t, refPath)
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
			e, err := experiment.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			const runSeed = 1
			want, wantCanon := chaosReference(t, e, id, runSeed)

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
					addrs := make([]string, 2)
					for i := range addrs {
						_, addrs[i] = startWorker(t, WorkerOptions{Start: chaosStart, Key: key})
					}
					jpath := filepath.Join(dir, "run.journal")
					j, err := fleet.CreateJournal(jpath, chaosMeta(id, runSeed, chaosScale))
					if err != nil {
						t.Fatal(err)
					}
					defer j.Close()

					// The heal clock starts at New: build the injector only
					// once the fabric is ready to dial through it.
					inj := chaos.New(seed, chaos.FromSeed(seed))
					coord, err := Connect(addrs, j, j.Meta(), Options{
						Key:              key,
						Logf:             t.Logf,
						dial:             inj.Dialer(),
						redialAttempts:   8,
						redialBackoff:    20 * time.Millisecond,
						configureTimeout: 5 * time.Second,
						runCellTimeout:   5 * time.Second,
						heartbeatEvery:   100 * time.Millisecond,
						heartbeatMisses:  5,
					})
					if err != nil {
						t.Fatalf("Connect under schedule %d: %v", seed, err)
					}
					defer coord.Close()

					dsc := chaosScale
					dsc.Run = &fleet.Run{Journal: j, Dispatch: coord}
					dsc.Workers = coord.Slots()
					got := render(e.Run(runSeed, dsc))
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
					if canon := canonicalJournal(t, jpath); !reflect.DeepEqual(canon, wantCanon) {
						t.Fatalf("schedule %d canonical journal diverges from fault-free run: %d records vs %d\n(%s)",
							seed, len(canon), len(wantCanon), coord.Metrics())
					}
					t.Logf("schedule %d ok: %s", seed, coord.Metrics())
				})
			}
		})
	}
}
