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

// blackoutFlowBytes is the doomed transfer's size. At the 2 Mbps
// bottleneck it needs ~1.3 s of wire time, so the 600 ms outage always
// interrupts it mid-flight.
const blackoutFlowBytes = 300_000

// blackoutRateBps deliberately shrinks the paper's 15 Mbps bottleneck
// so the flow is still in flight when the links die.
const blackoutRateBps = 2 * netem.Mbps

// blackoutAt is when both bottleneck directions go permanently dark.
const blackoutAt = 600 * sim.Millisecond

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

// blackoutCell configures one cell.
type blackoutCell struct {
	label  string
	scheme string
	giveUp bool // lifecycle give-up enabled (the ninth cell disables it)
}

// Columns of a blackout row: the post-mortem of the cell's flow.
const (
	boAbortReason = iota // transport.AbortReason
	boAbortAfter         // AbortedAt − blackoutAt, ns
	boTimeouts
	boRetx      // normal + proactive retransmissions
	boWasted    // packets the dark bottleneck swallowed (both directions)
	boDrained   // 1 if the scheduler drained
	boConservOK // 1 if packets were conserved
)

// blackout is the graceful-failure exhibit: the bottleneck (both
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
//
// Universes that fail supervision (by design, the no-give-up cell) are
// carried as labelled errors, not panics: the degraded sweep path.
var blackout = &Spec{ID: "blackout", Title: "Graceful failure under a permanent mid-flow outage", Degraded: true,
	Plan: func(seed uint64, _ Scale) ([]Axis, func([]int) (fleet.Row, error)) {
		cells := blackoutCells()
		return []Axis{{"cell", labels(cells, func(c blackoutCell) string { return c.label })}},
			func(at []int) (fleet.Row, error) {
				return runBlackoutCell(sim.ChildSeed(seed^0xb1ac007, uint64(at[0])), cells[at[0]])
			}
	},
	// One lifecycle table (failed cells as explicit FAILED(class) rows)
	// and one sweep-health summary.
	Tables: func(g *Grid) []*metrics.Table {
		life := metrics.NewTable("Blackout: permanent mid-flow outage, per-scheme give-up",
			"cell", "outcome", "abort_after_ms", "timeouts", "retx", "wasted_pkts", "drained", "conservation_ok")
		ok := 0
		classes := map[string]int{}
		for i, c := range g.Rows {
			label := g.Axes[0].Labels[i]
			if err := g.Errs[i]; err != nil {
				class := fleet.Classify(err)
				classes[class]++
				// The universe never reached a terminal flow state; render
				// the failure itself, not fabricated measurements.
				life.AddRow(label, metrics.FailedCell(class), "-", "-", "-", "-", "-", "-")
				continue
			}
			ok++
			life.AddRow(label, "abort:"+transport.AbortReason(c[boAbortReason]).String(),
				fmtMs(sim.Duration(c[boAbortAfter])), int64(c[boTimeouts]), int64(c[boRetx]),
				int64(c[boWasted]), c[boDrained] != 0, c[boConservOK] != 0)
		}
		health := metrics.NewTable("Blackout: sweep health (degraded mode)",
			"cells_ok", "failure_classes")
		health.AddRow(metrics.Censored(ok, len(g.Rows)), formatClasses(classes))
		return []*metrics.Table{life, health}
	},
}

func blackoutCells() []blackoutCell {
	var cells []blackoutCell
	for _, name := range scheme.Evaluated() {
		cells = append(cells, blackoutCell{label: name, scheme: name, giveUp: true})
	}
	return append(cells, blackoutCell{label: "TCP(no-give-up)", scheme: scheme.TCP})
}

// runBlackoutCell builds one doomed universe and runs it under
// supervision. It returns an error only when supervision trips — a
// clean lifecycle abort is this exhibit's success case.
func runBlackoutCell(seed uint64, cell blackoutCell) (fleet.Row, error) {
	cfg := netem.DumbbellConfig{
		Pairs:         1,
		BottleneckBps: blackoutRateBps,
		// Deep enough that nothing drops before the outage: every
		// wasted packet in the table is blackout damage, not congestion.
		BufferBytes: 500_000,
	}
	s := NewDumbbellSim(seed, cfg)
	adv := netem.Adversity{BlackoutAt: sim.Time(blackoutAt)}
	s.D.Bottleneck.SetAdversity(adv)
	s.D.Reverse.SetAdversity(adv)

	s.Opts.MaxRTO = blackoutMaxRTO
	s.Opts.MaxSynRetx = 6
	if cell.giveUp {
		s.Opts.MaxTimeouts = blackoutTimeouts
		s.Opts.MaxRetx = blackoutMaxRetx
		s.Opts.FlowDeadline = blackoutDeadline
	} else {
		s.Opts.MaxTimeouts = -1 // retry forever
	}

	conn := s.StartFlowAt(0, scheme.MustNew(cell.scheme), blackoutFlowBytes)
	err := s.RunSupervised(sim.SuperviseConfig{
		Horizon:     sim.Time(blackoutHorizon),
		EventBudget: blackoutEvents,
		StallWindow: blackoutStall,
	})
	if err != nil {
		return nil, err
	}

	st := conn.Stats
	abortAfter := st.AbortedAt.Sub(sim.Time(blackoutAt))
	wasted := s.D.Bottleneck.Stats.FlapDrops + s.D.Reverse.Stats.FlapDrops
	drained, conservOK := s.Drain()
	return fleet.Row{float64(st.AbortReason), float64(abortAfter), float64(st.Timeouts),
		float64(st.NormalRetx + st.ProactiveRetx), float64(wasted), bit(drained), bit(conservOK)}, nil
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
