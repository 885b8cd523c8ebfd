// Command fctsweep runs ad-hoc flow-completion-time sweeps outside the
// paper's fixed exhibits: pick schemes, a utilization range, flow size,
// buffer and RTT, and get the FCT curve. Useful for exploring the
// latency/safety tradeoff beyond the paper's operating points.
//
// Examples:
//
//	fctsweep -schemes Halfback,JumpStart -utils 10,30,50,70
//	fctsweep -schemes Halfback -flow 500000 -buffer 30000 -rtt 20ms
//
// Those are this tool's own flags. How a sweep executes — -workers,
// -journal/-resume/-repro, profiles, the distributed modes, signals and
// exit codes — is the run harness, internal/cli (DESIGN.md "Run
// harness"; README "Running sweeps").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"halfback/internal/cli"
	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// shape is one sweep: every flag below changes output bytes, so all of
// them round-trip through the journal meta.
type shape struct {
	schemes     string
	utilsPct    string
	flowBytes   int
	bufBytes    int
	rtt         time.Duration
	rateMbps    int64
	horizon     time.Duration
	seed        uint64
	adversity   string
	misbehave   string
	deadline    time.Duration
	maxRetx     int
	maxTimeouts int

	// The scheme × utilization grid, resolved by Check.
	names []string
	utils []float64
	adv   netem.Adversity
}

func (s *shape) Bind(fs *flag.FlagSet) {
	fs.StringVar(&s.schemes, "schemes", "Halfback,JumpStart,TCP", "comma-separated scheme names")
	fs.StringVar(&s.utilsPct, "utils", "10,30,50,70", "comma-separated utilization percentages")
	fs.IntVar(&s.flowBytes, "flow", 100_000, "flow size in bytes")
	fs.IntVar(&s.bufBytes, "buffer", 115_000, "bottleneck buffer in bytes")
	fs.DurationVar(&s.rtt, "rtt", 60*time.Millisecond, "path round-trip propagation")
	fs.Int64Var(&s.rateMbps, "rate", 15, "bottleneck rate in Mbit/s")
	fs.DurationVar(&s.horizon, "horizon", 60*time.Second, "virtual seconds of arrivals per cell")
	fs.Uint64Var(&s.seed, "seed", 1, "simulation seed")
	fs.StringVar(&s.adversity, "adversity", "none", "fault-injection preset on the bottleneck, both directions: "+strings.Join(netem.AdversityPresetNames(), "|"))
	fs.StringVar(&s.misbehave, "misbehave", "none", "replace every receiver with a Byzantine attacker: none|"+strings.Join(ptest.AttackerNames(), "|"))
	fs.DurationVar(&s.deadline, "flowdeadline", 0, "per-flow lifetime bound; flows abort (deadline) when it elapses; 0 disables")
	fs.IntVar(&s.maxRetx, "maxretx", 0, "per-flow retransmission budget; flows abort (retx-budget) beyond it; 0 disables")
	fs.IntVar(&s.maxTimeouts, "maxtimeouts", 0, "consecutive-RTO give-up; flows abort (retx-budget) beyond it; 0 selects the default of 15, negative retries forever")
}

func (s *shape) Meta() fleet.JournalMeta {
	return fleet.JournalMeta{Seed: s.seed, Args: []string{
		"-schemes", s.schemes,
		"-utils", s.utilsPct,
		"-flow", strconv.Itoa(s.flowBytes),
		"-buffer", strconv.Itoa(s.bufBytes),
		"-rtt", s.rtt.String(),
		"-rate", strconv.FormatInt(s.rateMbps, 10),
		"-horizon", s.horizon.String(),
		"-seed", strconv.FormatUint(s.seed, 10),
		"-adversity", s.adversity,
		"-misbehave", s.misbehave,
		"-flowdeadline", s.deadline.String(),
		"-maxretx", strconv.Itoa(s.maxRetx),
		"-maxtimeouts", strconv.Itoa(s.maxTimeouts),
	}}
}

func (s *shape) Check() error {
	// A zero rate or buffer would silently simulate DumbbellConfig's
	// defaults under a title that says 0, and a zero flow has no
	// segments to send.
	switch {
	case s.flowBytes <= 0:
		return errors.New("-flow must be positive")
	case s.bufBytes <= 0:
		return errors.New("-buffer must be positive")
	case s.rateMbps <= 0:
		return errors.New("-rate must be positive")
	case s.rtt <= 0:
		return errors.New("-rtt must be positive")
	case s.horizon <= 0:
		return errors.New("-horizon must be positive")
	case s.deadline < 0:
		return errors.New("-flowdeadline must not be negative")
	case s.maxRetx < 0:
		return errors.New("-maxretx must not be negative")
	}
	s.utils = nil
	for _, f := range strings.Split(s.utilsPct, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v > 0 && v <= 100) { // positive form: NaN fails it
			return fmt.Errorf("bad utilization %q", f)
		}
		s.utils = append(s.utils, v/100)
	}
	// The cells turn -rate into bits/s and into a Poisson interarrival;
	// a rate past either's range would panic in every cell.
	if s.rateMbps > math.MaxInt64/netem.Mbps {
		return fmt.Errorf("-rate %d Mbit/s overflows int64 bits/s", s.rateMbps)
	}
	if workload.MeanInterarrivalFor(workload.Fixed{Bytes: s.flowBytes}.Mean(), slices.Max(s.utils), s.rateMbps*netem.Mbps) < 1 {
		return fmt.Errorf("-rate %d Mbit/s is too high: %d-byte flows would arrive under 1ns apart", s.rateMbps, s.flowBytes)
	}
	s.names = strings.Split(s.schemes, ",")
	for i := range s.names {
		s.names[i] = strings.TrimSpace(s.names[i])
		if _, err := scheme.New(s.names[i]); err != nil {
			return err
		}
	}
	var err error
	if s.adv, err = netem.AdversityPreset(s.adversity); err != nil {
		return err
	}
	return ptest.CheckAttacker(s.misbehave)
}

// Run is the sweep program: one degraded sweep over the scheme ×
// utilization grid — env.Run's Journal, Dispatch, Serve or Target hooks
// decide where each cell actually executes — and one table.
func (s *shape) Run(env *cli.Env) (failed bool) {
	pcts := make([]string, len(s.utils))
	for i, u := range s.utils {
		pcts[i] = fmt.Sprintf("%.0f%%", u*100)
	}
	sweep := &experiment.Spec{ID: "fctsweep", Degraded: true,
		Plan: func(uint64, experiment.Scale) ([]experiment.Axis, func([]int) (fleet.Row, error)) {
			return []experiment.Axis{{Name: "scheme", Labels: s.names}, {Name: "util", Labels: pcts}},
				func(at []int) (fleet.Row, error) { return s.runCell(s.names[at[0]], s.utils[at[1]]), nil }
		}}
	g := sweep.Run(s.seed, experiment.Scale{Workers: env.Workers, Ctx: env.Ctx, Run: env.Run})
	if env.Out == nil {
		return false // a worker or a repro: the sweep was made, nothing renders
	}

	// The misbehave column (flows aborted for peer misbehavior plus
	// total flagged ACKs) appears only when an attacker is attached, so
	// honest sweeps render bit-identically to earlier releases.
	cols := []string{"scheme", "utilization_%", "flows", "mean_fct_ms", "p50_ms", "p99_ms", "mean_norm_retx", "completion", "aborted"}
	if s.misbehave != "none" {
		cols = append(cols, "misbehave")
	}
	table := metrics.NewTable(
		fmt.Sprintf("FCT sweep: %dB flows, %dMbps bottleneck, %v RTT, %dB buffer", s.flowBytes, s.rateMbps, s.rtt, s.bufBytes),
		cols...)

	// Render every cell honestly: real rows for completed cells,
	// FAILED(class) rows for crashed ones, nothing for cells a drain
	// skipped (they are still pending, not failed).
	done, interrupted := len(g.Rows), false
	for i, row := range g.Rows {
		name, util := s.names[i/len(s.utils)], s.utils[i%len(s.utils)]
		switch err := g.Errs[i]; {
		case err == nil:
			cells := []any{name, util * 100, int(row[colFlows]), row[colMeanFCT], row[colP50], row[colP99],
				row[colMeanRetx], row[colCompletion], int(row[colAborted])}
			if s.misbehave != "none" {
				cells = append(cells, fmt.Sprintf("%d aborts/%d flagged", int64(row[colPeerAborts]), int64(row[colFlagged])))
			}
			table.AddRow(cells...)
		case fleet.Classify(err) == fleet.ClassCanceled:
			done-- // skipped by the drain
			interrupted = true
		default:
			done--
			failed = true
			env.Logf("%v", err)
			row := []any{name, util * 100, "-", metrics.FailedCell(fleet.Classify(err)),
				"-", "-", "-", "-", "-"}
			for len(row) < len(cols) {
				row = append(row, "-")
			}
			table.AddRow(row...)
		}
	}
	if interrupted || env.Ctx.Err() != nil {
		table.Footer = fmt.Sprintf("INTERRUPTED: %d/%d cells complete — %s", done, len(g.Rows), env.ResumeHint())
	}
	table.WriteTo(env.Out)
	return failed
}

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("fctsweep", func() cli.Shape { return new(shape) }, args, stdout, stderr)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Columns of a cell's row.
const (
	colFlows = iota
	colMeanFCT
	colP50
	colP99
	colMeanRetx
	colCompletion
	colAborted
	colPeerAborts // -misbehave only: flows aborted for peer misbehavior
	colFlagged    // -misbehave only: ACKs the validators flagged
)

func (sh *shape) runCell(name string, util float64) fleet.Row {
	cfg := netem.DumbbellConfig{
		Pairs: 16, BottleneckBps: sh.rateMbps * netem.Mbps, RTT: sh.rtt, BufferBytes: sh.bufBytes,
	}.Defaulted()
	s := experiment.NewDumbbellSim(sh.seed, cfg)
	s.Opts.FlowDeadline = sim.Duration(sh.deadline)
	s.Opts.MaxRetx = sh.maxRetx
	s.Opts.MaxTimeouts = sh.maxTimeouts
	s.D.Bottleneck.SetAdversity(sh.adv)
	s.D.Reverse.SetAdversity(sh.adv)
	inst := scheme.MustNew(name)
	sizes := workload.Fixed{Bytes: sh.flowBytes}
	ia := workload.MeanInterarrivalFor(sizes.Mean(), util, cfg.BottleneckBps)
	arrivals := workload.PoissonArrivals(s.Rng.ForkNamed("arrivals"), sizes, ia, sh.horizon)
	for _, a := range arrivals {
		conn := s.StartFlowAt(a.At, inst, a.Bytes)
		if sh.misbehave != "none" {
			ptest.Attach(conn, sh.misbehave)
		}
	}
	s.Run(sim.Duration(sh.horizon) + 120*sim.Second)

	var fcts, retx []float64
	for _, st := range s.Finished {
		if sh.misbehave == "none" {
			fcts = append(fcts, st.FCT().Seconds()*1000)
		} else {
			// A Byzantine receiver never reports completion; the
			// sender-side finish time is the only meaningful FCT.
			fcts = append(fcts, st.SenderDone.Sub(st.Start).Seconds()*1000)
		}
		retx = append(retx, float64(st.NormalRetx))
	}
	aborted := 0
	for _, c := range s.Conns() {
		if c.Stats.Aborted && c.Stats.AbortReason != transport.AbortExternal {
			aborted++
		}
	}
	sum := metrics.Summarize(fcts)
	row := fleet.Row{
		float64(len(arrivals)), sum.Mean, sum.Median(), sum.Percentile(99),
		metrics.Summarize(retx).Mean, s.CompletionRate(), float64(aborted),
	}
	if sh.misbehave != "none" {
		var peerAborts, flagged int64
		for _, c := range s.Conns() {
			if c.Stats.AbortReason == transport.AbortPeerMisbehavior {
				peerAborts++
			}
			flagged += c.Stats.MisbehaviorTotal()
		}
		row = append(row, float64(peerAborts), float64(flagged))
	}
	return row
}
