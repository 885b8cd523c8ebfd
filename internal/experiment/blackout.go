package experiment

import (
	"fmt"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// Blackout is the graceful-failure exhibit: the bottleneck (both
// directions) dies permanently mid-flow and never comes back. There is
// no FCT to report — every flow is doomed — so the exhibit measures how
// each scheme *fails*: how long after the outage the flow lifecycle
// gives up, under which budget (retransmission budget vs the deadline
// backstop), and how many packets it wasted feeding the dark link
// before giving up. A well-behaved scheme aborts promptly, leaves the
// scheduler drained, and conserves every packet it injected.
//
// A ninth cell runs plain TCP with the lifecycle give-up disabled
// (MaxTimeouts < 0, no deadline): the flow retransmits into the void
// forever. The sim supervision layer's stall detector catches it and
// the sweep reports the cell as FAILED(stalled) instead of hanging —
// the degraded-mode rendering the rest of the harness relies on.

// BlackoutFlowBytes is the doomed transfer's size. At the 2 Mbps
// bottleneck it needs ~1.3 s of wire time, so the 600 ms outage always
// interrupts it mid-flight.
const BlackoutFlowBytes = 300_000

// blackoutRateBps deliberately shrinks the paper's 15 Mbps bottleneck
// so the flow is still in flight when the links die.
const blackoutRateBps = 2 * netem.Mbps

// BlackoutAt is when both bottleneck directions go permanently dark.
const BlackoutAt = 600 * sim.Millisecond

// Blackout supervision/lifecycle parameters. They are part of the
// exhibit's semantics (abort latency is measured against them), so they
// do not scale with Scale.Horizon.
const (
	blackoutMaxRTO   = 4 * sim.Second   // cap backoff so give-up lands in tens of seconds
	blackoutTimeouts = 8                // consecutive-RTO budget
	blackoutMaxRetx  = 600              // cumulative retx budget (catches probe-happy schemes)
	blackoutDeadline = 90 * sim.Second  // hard per-flow backstop
	blackoutHorizon  = 300 * sim.Second // supervision horizon
	blackoutStall    = 150 * sim.Second // > deadline, so only the no-give-up cell stalls
	blackoutEvents   = 5_000_000        // event budget (generous; never binds here)
)

// BlackoutCell is one scheme's post-mortem.
type BlackoutCell struct {
	Label  string
	Scheme string
	GiveUp bool // lifecycle give-up enabled (the ninth cell disables it)

	Stats      *transport.FlowStats
	AbortAfter sim.Duration // AbortedAt − BlackoutAt
	WastedPkts int64        // packets the dark bottleneck swallowed (both directions)
	Drained    bool
	ConservOK  bool
}

// BlackoutResult is the exhibit's dataset. Cells and Errs are
// index-aligned: a cell whose universe failed supervision holds its
// zero value and a non-nil classified error.
type BlackoutResult struct {
	Cells []BlackoutCell
	Errs  []error
}

func blackoutCells() []BlackoutCell {
	var cells []BlackoutCell
	for _, name := range scheme.Evaluated() {
		cells = append(cells, BlackoutCell{Label: name, Scheme: name, GiveUp: true})
	}
	cells = append(cells, BlackoutCell{Label: "TCP(no-give-up)", Scheme: scheme.TCP, GiveUp: false})
	return cells
}

// Blackout runs the exhibit. Universes that fail supervision (by
// design, the no-give-up cell) are carried as labelled errors, not
// panics — the degraded sweep path.
func Blackout(seed uint64, sc Scale) *BlackoutResult {
	spec := blackoutCells()
	res := &BlackoutResult{}
	res.Cells, res.Errs = sweepPartial(sc, len(spec), func(i int) string {
		return fmt.Sprintf("blackout %s", spec[i].Label)
	}, func(i int) (BlackoutCell, error) {
		return runBlackoutCell(sim.ChildSeed(seed^0xb1ac007, uint64(i)), spec[i])
	})
	return res
}

// runBlackoutCell builds one doomed universe and runs it under
// supervision. It returns an error only when supervision trips — a
// clean lifecycle abort is this exhibit's success case.
func runBlackoutCell(seed uint64, cell BlackoutCell) (BlackoutCell, error) {
	cfg := netem.DumbbellConfig{
		Pairs:         1,
		BottleneckBps: blackoutRateBps,
		// Deep enough that nothing drops before the outage: every
		// wasted packet in the table is blackout damage, not congestion.
		BufferBytes: 500_000,
	}
	s := NewDumbbellSim(seed, cfg)
	adv := netem.Adversity{BlackoutAt: sim.Time(BlackoutAt)}
	s.D.Bottleneck.SetAdversity(adv)
	s.D.Reverse.SetAdversity(adv)

	s.Opts.MaxRTO = blackoutMaxRTO
	s.Opts.MaxSynRetx = 6
	if cell.GiveUp {
		s.Opts.MaxTimeouts = blackoutTimeouts
		s.Opts.MaxRetx = blackoutMaxRetx
		s.Opts.FlowDeadline = blackoutDeadline
	} else {
		s.Opts.MaxTimeouts = -1 // retry forever
	}

	conn := s.StartFlowAt(0, scheme.MustNew(cell.Scheme), BlackoutFlowBytes)
	err := s.RunSupervised(sim.SuperviseConfig{
		Horizon:     sim.Time(blackoutHorizon),
		EventBudget: blackoutEvents,
		StallWindow: blackoutStall,
	})
	if err != nil {
		return BlackoutCell{}, err
	}

	cell.Stats = conn.Stats
	cell.AbortAfter = conn.Stats.AbortedAt.Sub(sim.Time(BlackoutAt))
	cell.WastedPkts = s.D.Bottleneck.Stats.FlapDrops + s.D.Reverse.Stats.FlapDrops
	cell.Drained, cell.ConservOK = s.Drain()
	return cell, nil
}

// Tables renders the exhibit: one lifecycle table (failed cells as
// explicit FAILED(class) rows) and one sweep-health summary.
func (r *BlackoutResult) Tables() []*metrics.Table {
	life := metrics.NewTable("Blackout: permanent mid-flow outage, per-scheme give-up",
		"cell", "outcome", "abort_after_ms", "timeouts", "retx", "wasted_pkts", "drained", "conservation_ok")
	ok := 0
	classes := map[string]int{}
	for i, c := range r.Cells {
		if err := r.Errs[i]; err != nil {
			class := fleet.Classify(err)
			classes[class]++
			// The universe never reached a terminal flow state; render
			// the failure itself, not fabricated measurements.
			life.AddRow(blackoutCells()[i].Label, metrics.FailedCell(class),
				"-", "-", "-", "-", "-", "-")
			continue
		}
		ok++
		st := c.Stats
		life.AddRow(c.Label, "abort:"+st.AbortReason.String(),
			fmtMs(c.AbortAfter), st.Timeouts, st.NormalRetx+st.ProactiveRetx,
			c.WastedPkts, c.Drained, c.ConservOK)
	}
	health := metrics.NewTable("Blackout: sweep health (degraded mode)",
		"cells_ok", "failure_classes")
	health.AddRow(metrics.Censored(ok, len(r.Cells)), formatClasses(classes))
	return []*metrics.Table{life, health}
}

// formatClasses renders a class histogram deterministically.
func formatClasses(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	out := ""
	for _, class := range []string{fleet.ClassAborted, fleet.ClassStalled, fleet.ClassPanicked, fleet.ClassError} {
		if n := m[class]; n > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s:%d", class, n)
		}
	}
	return out
}
