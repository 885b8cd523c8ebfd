package experiment

import (
	"strings"

	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/trace"
	"halfback/internal/transport"
)

// Fig3Result reproduces the paper's Fig. 3 walkthrough as an executable
// exhibit: a 10-segment flow whose packet 9 (0-based: segment 8) loses
// its first copy. Halfback paces the ten segments across one RTT, then
// ROPR retransmits 10, 9, 8... per ACK; the proactive copy of the lost
// packet arrives before the sender is ever notified of the loss, so the
// flow finishes without a timeout — while vanilla TCP, run on the same
// scenario, waits out its RTO.
type Fig3Result struct {
	HalfbackSeq     string // rendered time-sequence diagram
	HalfbackSummary trace.Summary
	HalfbackStats   *transport.FlowStats
	TCPStats        *transport.FlowStats
}

// fig3Bytes is ten full segments.
const fig3Bytes = 10 * netem.SegmentPayload

// fig3Cell is one scheme's run of the walkthrough — the unit the fleet
// engine executes, journals and replays. Only the Halfback cell records
// a trace, so Seq/Summary are zero for the TCP cell.
type fig3Cell struct {
	Stats   *transport.FlowStats
	Seq     string
	Summary trace.Summary
}

// Fig3 runs the walkthrough. Both schemes are independent universes on
// the same seed, so they run as a two-cell sweep: the exhibit inherits
// the engine's crash-safety (journaling, resume, repro) and renders
// identically for every worker count.
func Fig3(seed uint64, sc Scale) *Fig3Result {
	runOne := func(name string, record bool) (*transport.FlowStats, *trace.Recorder) {
		ps := NewPathSim(seed, netem.PathConfig{
			RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond, BufferBytes: 115_000,
		})
		var rec *trace.Recorder
		if record {
			rec = trace.NewRecorder()
			rec.Attach(ps.Path.Net)
		}
		// Swallow the first copy of segment 8 (the paper's "packet 9"
		// in 1-based numbering) at the client.
		ps.DropFirstCopies(8)
		st := ps.FetchOnce(scheme.MustNew(name), fig3Bytes, 60*sim.Second)
		return st, rec
	}

	names := []string{scheme.Halfback, scheme.TCP}
	cells, _ := runSweep(sc, "3", []Axis{{"scheme", names}}, false, func(at []int) (fig3Cell, error) {
		st, rec := runOne(names[at[0]], at[0] == 0)
		c := fig3Cell{Stats: st}
		if rec != nil {
			c.Seq = rec.Sequence()
			c.Summary = rec.Summarize()
		}
		return c, nil
	})
	return &Fig3Result{
		HalfbackSeq:     cells[0].Seq,
		HalfbackSummary: cells[0].Summary,
		HalfbackStats:   cells[0].Stats,
		TCPStats:        cells[1].Stats,
	}
}

// Tables renders the walkthrough.
func (r *Fig3Result) Tables() []*metrics.Table {
	sum := metrics.NewTable("Fig.3 walkthrough: 10-segment flow, packet 9 lost once",
		"scheme", "fct_ms", "timeouts", "normal_retx", "proactive_retx")
	sum.AddRow("Halfback", r.HalfbackStats.FCT().Seconds()*1000,
		r.HalfbackStats.Timeouts, r.HalfbackStats.NormalRetx, r.HalfbackStats.ProactiveRetx)
	sum.AddRow("TCP", r.TCPStats.FCT().Seconds()*1000,
		r.TCPStats.Timeouts, r.TCPStats.NormalRetx, r.TCPStats.ProactiveRetx)

	seq := metrics.NewTable("Fig.3 Halfback wire trace (d=data, a=ack; '+' proactive, '*' reactive)",
		"trace")
	seq.AddRow("see sequence below")
	return []*metrics.Table{sum, seq, sequenceAsTable(r.HalfbackSeq)}
}

// sequenceAsTable wraps the rendered diagram line by line so the CLI's
// table writer can print it.
func sequenceAsTable(s string) *metrics.Table {
	t := metrics.NewTable("", "line")
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		t.AddRow(line)
	}
	return t
}
