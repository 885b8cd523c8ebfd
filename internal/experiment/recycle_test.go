package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// recycleCell is one download of the reset ≡ fresh property test. tamper
// selects what the cell bolts onto its universe before fetching: none of
// it may reach the next cell.
type recycleCell struct {
	seed     uint64
	cfg      netem.PathConfig
	scheme   string
	bytes    int
	deadline sim.Duration
	tamper   int
	drain    bool // run the queue dry after the fetch and check conservation
}

const (
	tamperNone      = iota
	tamperHooks     // Fig 3's kit: OnConn, Net.Trace, a Client.Deliver wrapper, a link OnDrop tap
	tamperAdversity // torture adversity (flap events, slow-path packets) and CoDel on the links
	tamperKinds
)

// genRecycleCells draws cells across the configurations the pooled
// exhibits see — and beyond: LAN to intercontinental RTTs, shallow and
// bloated buffers, lossy and asymmetric paths, every registered scheme,
// and deadlines short enough to abort mid-handshake or mid-transfer, so
// many cells end dirty (packets queued and in flight, RTO, pacer and
// delayed-ACK timers pending, the scheduler stopped or mid-window).
func genRecycleCells(rng *sim.Rand, n int) []recycleCell {
	names := scheme.AllNames()
	cells := make([]recycleCell, n)
	for i := range cells {
		c := recycleCell{
			seed:   rng.Uint64(),
			scheme: names[rng.Intn(len(names))],
			bytes:  1000 + rng.Intn(200_000),
			cfg: netem.PathConfig{
				RateBps:     int64(rng.LogUniform(0.5, 500) * float64(netem.Mbps)),
				RTT:         sim.Duration(rng.LogUniform(0.2, 400) * float64(sim.Millisecond)),
				BufferBytes: int(rng.LogUniform(4<<10, 1<<20)),
			},
			deadline: 120 * sim.Second,
			tamper:   rng.Intn(tamperKinds),
			drain:    rng.Bool(0.5),
		}
		if rng.Bool(0.4) {
			c.cfg.LossProb = rng.LogUniform(1e-3, 0.2)
		}
		if rng.Bool(0.3) {
			c.cfg.UpRateBps = c.cfg.RateBps / int64(2+rng.Intn(20))
		}
		if rng.Bool(0.4) { // abort somewhere between the SYN and the last ACK
			c.deadline = sim.Duration(rng.LogUniform(0.3, 6) * float64(c.cfg.RTT))
		}
		cells[i] = c
	}
	return cells
}

// cellOutcome is everything observable about one cell's universe.
type cellOutcome struct {
	Stats          *transport.FlowStats
	Processed      uint64
	Now            sim.Time
	Pending        int
	Net            [4]int64 // injected, delivered, dropped, duplicated
	Forward, Back  netem.LinkStats
	CorruptDropped [2]int64
	HookCalls      int
}

// runRecycleCell fetches c on ps (already at the cell's seed and
// configuration) and reports the outcome. hookCalls counts every
// invocation of a hook any cell installed on this universe.
func runRecycleCell(t *testing.T, ps *PathSim, c recycleCell, hookCalls *int) cellOutcome {
	t.Helper()
	switch c.tamper {
	case tamperHooks:
		ps.OnConn = func(*transport.Conn) { *hookCalls++ }
		ps.Path.Net.Trace = func(netem.TraceEvent) { *hookCalls++ }
		ps.Path.Back.OnDrop = func(*netem.Packet, sim.Time) { *hookCalls++ }
		inner := ps.Path.Client.Deliver
		swallowed := false
		ps.Path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
			*hookCalls++
			if pkt.Kind == netem.KindData && pkt.Seq == 3 && !swallowed {
				swallowed = true
				return
			}
			inner(pkt, now)
		}
	case tamperAdversity:
		ps.Path.Back.SetAdversity(netem.MustAdversityPreset("torture"))
		ps.Path.Forward.SetAdversity(netem.MustAdversityPreset("reorder"))
		ps.Path.Back.Discipline = netem.CoDel
		ps.Opts.MaxRetx = 40
	}
	before := *hookCalls
	st := ps.FetchOnce(scheme.MustNew(c.scheme), c.bytes, c.deadline)
	if c.drain {
		ps.Sched.Run()
		n := ps.Path.Net
		if n.InjectedTotal+n.DuplicatedTotal != n.DeliveredTotal+n.DroppedTotal {
			t.Fatalf("conservation violated after drain: injected %d + duplicated %d != delivered %d + dropped %d",
				n.InjectedTotal, n.DuplicatedTotal, n.DeliveredTotal, n.DroppedTotal)
		}
	}
	n := ps.Path.Net
	return cellOutcome{
		Stats: st, Processed: ps.Sched.Processed, Now: ps.Sched.Now(), Pending: ps.Sched.Pending(),
		Net:     [4]int64{n.InjectedTotal, n.DeliveredTotal, n.DroppedTotal, n.DuplicatedTotal},
		Forward: ps.Path.Forward.Stats, Back: ps.Path.Back.Stats,
		CorruptDropped: [2]int64{ps.Client.CorruptDropped, ps.Server.CorruptDropped},
		HookCalls:      *hookCalls - before,
	}
}

// TestRecycledPathSimMatchesFresh is the standing proof behind the
// universe pool: a seeded random sequence of cells run one after another
// on a single recycled PathSim yields, cell for cell, exactly what each
// yields on a universe built by NewPathSim — deeply equal FlowStats, the
// same executed-event count, clock, pending count, network and link
// counters — however dirty the previous cell left the universe, and no
// hook, option or link setting a cell installed is ever seen by a later
// one. Drained cells also check packet conservation, so it holds on
// recycled universes too.
func TestRecycledPathSimMatchesFresh(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		cells := genRecycleCells(sim.NewRand(uint64(trial)+1), 150)
		recycled := new(PathSim)
		var recycledHooks, dirty int
		for i, c := range cells {
			label := fmt.Sprintf("trial %d cell %d (%s, %d B, %+v, deadline %v, tamper %d, drain %v)",
				trial, i, c.scheme, c.bytes, c.cfg, c.deadline, c.tamper, c.drain)

			var freshHooks int
			want := runRecycleCell(t, NewPathSim(c.seed, c.cfg), c, &freshHooks)

			recycled.Reset(c.seed, c.cfg)
			if recycled.OnConn != nil || recycled.Path.Net.Trace != nil ||
				!reflect.DeepEqual(recycled.Opts, transport.DefaultOptions()) {
				t.Fatalf("%s: Reset kept a hook or option of the previous cell", label)
			}
			got := runRecycleCell(t, recycled, c, &recycledHooks)

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n recycled: %+v\n   stats: %+v\n fresh:    %+v\n   stats: %+v",
					label, got, got.Stats, want, want.Stats)
			}
			if got.Pending > 0 {
				dirty++
			}
		}
		if dirty < len(cells)/5 {
			t.Fatalf("trial %d: only %d of %d cells ended dirty; the property was not exercised", trial, dirty, len(cells))
		}
	}
}

// TestPooledCampaignMatchesFreshUniverses ties the pool to the exhibits
// that use it: every row of a pooled PlanetLab campaign — run after
// Fig 9 has left differently shaped universes in the pool — equals the
// row of the same cell run on its own NewPathSim, at one worker and at
// eight.
func TestPooledCampaignMatchesFreshUniverses(t *testing.T) {
	sc := tiny
	fig9.Run(1, sc)
	schemes := planetLabSchemes()
	for _, workers := range []int{1, 8} {
		sc.Workers = workers
		g := RunPlanetLab(1, sc)
		specs := workload.PlanetLabPopulationCached(sim.NewRand(1).ForkNamed("paths"), len(g.Axes[0].Labels))
		for i, row := range g.Rows {
			pi, si := i/len(schemes), i%len(schemes)
			ps := NewPathSim(1^uint64(pi*131+si+7), specs[pi].ToConfig())
			want := coldRow(ps.FetchOnce(scheme.MustNew(schemes[si]), PlanetLabFlowBytes, 120*sim.Second), specs[pi].RTT)
			if !reflect.DeepEqual(row, want) {
				t.Fatalf("workers=%d trial %d (pair %d, %s): pooled %v, fresh %v",
					workers, i, pi, schemes[si], row, want)
			}
		}
	}
}
