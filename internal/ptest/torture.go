package ptest

import (
	"fmt"
	"strings"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// Torture harness: randomized adversity universes for every scheme.
//
// A universe is a single wide-area path whose parameters and fault
// processes are all drawn from one seed — rate, RTT, buffer, random
// loss, reordering, duplication, corruption, jitter and flap schedule.
// RunTorture drives one flow of one scheme through it and checks the
// safety invariants that must hold no matter how hostile the path is:
//
//  1. liveness    — the flow completes well before the horizon;
//  2. integrity   — the receiver's XOR-folded payload checksum equals
//     the sender's expectation (every byte arrived intact);
//  3. exactly-once— the application saw each segment exactly once;
//  4. no deadlock — the scheduler drains after teardown;
//  5. conservation— injected + duplicated == delivered + dropped.
//
// The harness lives in the library (not the _test file) so the fuzzing
// and CI tooling can reuse it.

// TortureUniverse is one fully specified hostile world.
type TortureUniverse struct {
	Seed uint64
	Path netem.PathConfig
	Adv  netem.Adversity
}

// RandomUniverse draws a universe from the seed: a plausible wide-area
// path (5–20 Mbps, 20–120 ms RTT, 30–200 KB buffer, ≤3% random loss)
// under heavy adversity (≤30% reorder, ≤10% duplication, ≤5%
// corruption, ≤50% jitter, up to two sub-second outages in the first
// two seconds). Both directions of the path get the same configuration
// but independent RNG streams.
func RandomUniverse(seed uint64) TortureUniverse {
	rng := sim.NewRand(seed ^ 0x746f727475726521) // tag: "torture!"
	u := TortureUniverse{Seed: seed}
	u.Path = netem.PathConfig{
		RateBps:     5*netem.Mbps + rng.Int63n(15*netem.Mbps),
		RTT:         sim.Duration(20+rng.Intn(101)) * sim.Millisecond,
		BufferBytes: 30_000 + rng.Intn(170_001),
		LossProb:    rng.Float64() * 0.03,
	}
	u.Adv = netem.Adversity{
		ReorderProb:  rng.Float64() * 0.30,
		ReorderDelay: sim.Duration(1+rng.Intn(10)) * sim.Millisecond,
		DupProb:      rng.Float64() * 0.10,
		CorruptProb:  rng.Float64() * 0.05,
		JitterProb:   rng.Float64() * 0.50,
		JitterMax:    sim.Duration(1+rng.Intn(5)) * sim.Millisecond,
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		at := sim.Time(rng.Int63n(int64(2 * sim.Second)))
		dur := sim.Duration(50+rng.Intn(251)) * sim.Millisecond
		u.Adv.Flaps = append(u.Adv.Flaps, netem.Flap{DownAt: at, UpAt: at.Add(dur)})
	}
	return u
}

// PresetUniverse builds a universe from a named netem adversity preset
// on the paper's default wide-area path, seeded for the loss and
// adversity streams.
func PresetUniverse(seed uint64, preset string) TortureUniverse {
	return TortureUniverse{
		Seed: seed,
		Path: netem.PathConfig{
			RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond,
			BufferBytes: 115_000, LossProb: 0.01,
		},
		Adv: netem.MustAdversityPreset(preset),
	}
}

// TortureResult records one run's verdicts; Err aggregates violations.
type TortureResult struct {
	Scheme   string
	Universe TortureUniverse

	Completed      bool // receiver held every byte before the horizon
	SenderDone     bool // sender learned of completion
	ChecksumOK     bool // XOR-fold matches the sender's expectation
	Deliveries     int32
	NumSegs        int32
	Drained        bool // scheduler empty after teardown
	ConservationOK bool

	Stats *transport.FlowStats
}

// Err returns nil when every invariant held, else one error naming all
// violations.
func (r *TortureResult) Err() error {
	var probs []string
	if !r.Completed {
		probs = append(probs, "flow did not complete")
	}
	if !r.SenderDone {
		probs = append(probs, "sender never learned of completion")
	}
	if !r.ChecksumOK {
		probs = append(probs, "end-to-end payload checksum mismatch")
	}
	if r.Deliveries != r.NumSegs {
		probs = append(probs, fmt.Sprintf("app saw %d deliveries for %d segments", r.Deliveries, r.NumSegs))
	}
	if !r.Drained {
		probs = append(probs, "scheduler did not drain after teardown")
	}
	if !r.ConservationOK {
		probs = append(probs, "packet conservation violated")
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("%s seed=%d: %s", r.Scheme, r.Universe.Seed, strings.Join(probs, "; "))
}

// tortureHorizon bounds one run; a healthy flow under these parameters
// finishes in seconds, so hitting the horizon is a liveness failure,
// not an undersized budget.
const tortureHorizon = 600 * sim.Second

// RunTorture runs one flow of schemeName through the universe and
// returns the verdicts. Every run builds its own scheduler, network and
// scheme instance, so it is safe to fan across fleet workers.
func RunTorture(u TortureUniverse, schemeName string, flowBytes int) *TortureResult {
	w := newWorld(u.Seed, u.Path)
	w.Path.Forward.SetAdversity(u.Adv)
	w.Path.Back.SetAdversity(u.Adv)

	conn := w.Dial(flowBytes, transport.Options{}, scheme.MustNew(schemeName).Make)
	res := &TortureResult{Scheme: schemeName, Universe: u, NumSegs: conn.NumSegs(), Stats: conn.Stats}
	conn.OnDeliver = func(payloadBytes int, now sim.Time) { res.Deliveries++ }

	conn.Start(0)
	w.Sched.RunUntil(sim.Time(tortureHorizon))
	res.Completed = conn.Stats.Completed
	res.SenderDone = conn.Finished()
	res.ChecksumOK = conn.Stats.PayloadSumRecv == conn.ExpectedPayloadSum()

	res.Drained, res.ConservationOK = w.Drain()
	return res
}
