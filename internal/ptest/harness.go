package ptest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// The hostile-path harness: one flow of one scheme through one
// single-path universe, run to the universe's horizon and then torn
// down. Three suites read the one Result, each with its own verdict:
//
//   - torture (TortureErr): the path is hostile but survivable, so the
//     flow must complete with every byte intact and delivered exactly
//     once;
//   - blackout (BlackoutErr): the path dies for good, so the flow must
//     give up, reaching the terminal Aborted state instead of retrying
//     forever;
//   - attack (AttackErr): the receiver lies, so the sender's waste must
//     stay bounded and the flow must end the way the contract says.
//
// All three also require a clean teardown: the scheduler drains and
// injected + duplicated == delivered + dropped. The harness lives in
// the library (not a _test file) so exhibits and fuzzing reuse it.

// Universe is one fully specified world: the path and its loss streams'
// seed, the adversity on both directions, and how long a run may take.
type Universe struct {
	Seed uint64
	Path netem.PathConfig
	// Adv applies to both directions, each with its own RNG stream.
	// Adv.BlackoutAt kills the path for good: use 1 (one nanosecond)
	// for a world dark from birth, and 0 for no outage.
	Adv netem.Adversity
	// Horizon bounds the run; a flow still running there has failed.
	Horizon sim.Duration
}

// Horizons. A healthy flow on these paths finishes in seconds and the
// lifecycle budgets the blackout suite passes give up well inside two
// minutes, so hitting a horizon is a liveness failure, not an
// undersized budget. The attack horizon covers the full MaxTimeouts
// backoff ladder (~660 s virtual with the 1 s MinRTO and 60 s cap).
const (
	tortureHorizon  = 600 * sim.Second
	blackoutHorizon = 120 * sim.Second
	attackHorizon   = 3600 * sim.Second
)

// defaultPath is the paper's wide-area path (15 Mbps, 60 ms, 115 KB)
// with the given random loss.
func defaultPath(loss float64) netem.PathConfig {
	return netem.PathConfig{
		RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond,
		BufferBytes: 115_000, LossProb: loss,
	}
}

// RandomUniverse draws a torture universe from the seed: a plausible
// wide-area path (5–20 Mbps, 20–120 ms RTT, 30–200 KB buffer, ≤3%
// random loss) under heavy adversity (≤30% reorder, ≤10% duplication,
// ≤5% corruption, ≤50% jitter, up to two sub-second outages in the
// first two seconds).
func RandomUniverse(seed uint64) Universe {
	rng := sim.NewRand(seed ^ 0x746f727475726521) // tag: "torture!"
	u := Universe{Seed: seed, Horizon: tortureHorizon}
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

// PresetUniverse is a torture universe: a named netem adversity preset
// on the paper's default path with 1% random loss.
func PresetUniverse(seed uint64, preset string) Universe {
	return Universe{Seed: seed, Path: defaultPath(0.01), Adv: netem.MustAdversityPreset(preset), Horizon: tortureHorizon}
}

// OutageUniverse is a blackout universe: the paper's default lossless
// path going dark for good at the given instant.
func OutageUniverse(seed uint64, at sim.Time) Universe {
	return Universe{Seed: seed, Path: defaultPath(0), Adv: netem.Adversity{BlackoutAt: at}, Horizon: blackoutHorizon}
}

// AttackUniverse is the deterministic world the attack suite runs in:
// the paper's default path with 2% random loss, so loss recovery is in
// play but the dominant adversary is the receiver itself.
func AttackUniverse(seed uint64) Universe {
	return Universe{Seed: seed, Path: defaultPath(0.02), Horizon: attackHorizon}
}

// Result is one run. The flow's terminal state is read at the horizon,
// before Drain aborts whatever is still running; Stats keeps counting
// through the teardown.
type Result struct {
	Scheme   string
	Attack   string // "" for the honest receiver
	Universe Universe
	Opts     transport.Options

	NumSegs int32
	// Delivered counts the distinct segments the receiver took: the
	// application's deliveries behind an honest receiver, the genuine
	// arrivals at an attacker.
	Delivered  int32
	ChecksumOK bool // XOR fold matches the sender's expectation

	Completed   bool // receiver held every byte
	Finished    bool // sender reached a terminal state, done or aborted
	Aborted     bool
	AbortReason transport.AbortReason
	AbortedAt   sim.Time

	Drained   bool // scheduler empty after teardown
	Conserved bool // packet conservation held

	Stats *transport.FlowStats
}

// Run drives one flow of schemeName through the universe under opts,
// against the named attacker ("" for an honest receiver). Every run
// builds its own scheduler, network and scheme instance, so it is safe
// to fan across fleet workers and to fuzz.
func Run(u Universe, schemeName string, flowBytes int, opts transport.Options, attack string) *Result {
	w := newWorld(u.Seed, u.Path)
	w.Path.Forward.SetAdversity(u.Adv)
	w.Path.Back.SetAdversity(u.Adv)

	conn := w.Dial(flowBytes, opts, scheme.MustNew(schemeName).Make)
	r := &Result{Scheme: schemeName, Attack: attack, Universe: u, Opts: opts, NumSegs: conn.NumSegs(), Stats: conn.Stats}
	var host *AttackHost
	if attack != "" {
		host = Attach(conn, attack)
	} else {
		conn.OnDeliver = func(int, sim.Time) { r.Delivered++ }
	}

	conn.Start(0)
	w.Sched.RunUntil(sim.Time(u.Horizon))
	if host != nil {
		r.Delivered = host.Distinct
	}
	st := conn.Stats
	r.ChecksumOK = st.PayloadSumRecv == conn.ExpectedPayloadSum()
	r.Completed, r.Finished, r.Aborted = st.Completed, conn.Finished(), conn.Aborted()
	r.AbortReason, r.AbortedAt = st.AbortReason, st.AbortedAt

	r.Drained, r.Conserved = w.Drain()
	return r
}

// SenderDone reports the sender finished without aborting: it believes
// the flow completed.
func (r *Result) SenderDone() bool { return r.Finished && !r.Aborted }

// FalseCompletion reports the sender believes the flow completed while
// the receiver does not hold all of it.
func (r *Result) FalseCompletion() bool { return r.SenderDone() && r.Delivered != r.NumSegs }

// TortureErr checks a survivable universe: the flow completed before
// the horizon (liveness), every byte arrived intact (integrity) and the
// application saw each segment exactly once.
func (r *Result) TortureErr() error {
	var probs []string
	if !r.Completed {
		probs = append(probs, "flow did not complete")
	}
	if !r.Finished {
		probs = append(probs, "sender never learned of completion")
	}
	if !r.ChecksumOK {
		probs = append(probs, "end-to-end payload checksum mismatch")
	}
	if r.Delivered != r.NumSegs {
		probs = append(probs, fmt.Sprintf("app saw %d deliveries for %d segments", r.Delivered, r.NumSegs))
	}
	return errOf(fmt.Sprintf("%s seed=%d", r.Scheme, r.Universe.Seed), r.teardown(probs))
}

// BlackoutErr checks an unsurvivable universe: the flow gave up,
// reaching the terminal Aborted state.
func (r *Result) BlackoutErr() error {
	var probs []string
	if !r.Aborted {
		probs = append(probs, "flow never reached the Aborted state")
	}
	return errOf(fmt.Sprintf("%s seed=%d", r.Scheme, r.Universe.Seed), r.teardown(probs))
}

// maxAttackAmplification is the documented bounded-waste guarantee:
// against every attacker, under either validation policy, a sender
// transmits at most this multiple of the flow's segment count plus
// attackWasteSlack segments of fixed overhead for handshake-adjacent
// retransmissions. The bound follows from the flow-control window (a
// stalled cumulative point caps new data at one window) plus the
// MaxTimeouts retransmission budget.
const (
	maxAttackAmplification = 6
	attackWasteSlack       = 128
)

// AttackErr checks a run against a lying receiver: the flow terminated
// before the horizon, the sender's waste stayed within the bound, a
// validating sender was never fooled into a false completion, and the
// flow ended in a state expectedAttackReasons permits. flowBytes should
// exceed one flow-control window (141 KB) so a starved cumulative point
// genuinely stalls the sender.
func (r *Result) AttackErr() error {
	var probs []string
	if !r.Finished {
		probs = append(probs, "flow did not terminate before the horizon")
	}
	if limit := int64(maxAttackAmplification)*int64(r.NumSegs) + attackWasteSlack; r.Stats.DataPktsSent > limit {
		probs = append(probs, fmt.Sprintf("waste bound violated: sent %d > %d (%d segs)",
			r.Stats.DataPktsSent, limit, r.NumSegs))
	}
	mode := r.Opts.AckValidation
	if mode != transport.AckValidationOff && r.FalseCompletion() {
		probs = append(probs, fmt.Sprintf("false completion: sender done with %d/%d segments delivered",
			r.Delivered, r.NumSegs))
	}
	if rs := expectedAttackReasons(r.Attack, mode); r.SenderDone() && !slices.Contains(rs, transport.AbortNone) {
		probs = append(probs, "completed where an abort was required")
	} else if r.Aborted && !slices.Contains(rs, r.AbortReason) {
		probs = append(probs, fmt.Sprintf("aborted with %v, want one of %v", r.AbortReason, rs))
	}
	probs = r.teardown(probs)
	sort.Strings(probs)
	return errOf(fmt.Sprintf("%s vs %s (%v)", r.Scheme, r.Attack, mode), probs)
}

// teardown appends the violations every verdict shares.
func (r *Result) teardown(probs []string) []string {
	if !r.Drained {
		probs = append(probs, "scheduler did not drain after teardown")
	}
	if !r.Conserved {
		probs = append(probs, "packet conservation violated")
	}
	return probs
}

// errOf returns nil for no violations, else one error naming them all.
func errOf(who string, probs []string) error {
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", who, strings.Join(probs, "; "))
}
