package experiment

import (
	"strings"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/trace"
)

// fig3Bytes is ten full segments.
const fig3Bytes = 10 * netem.SegmentPayload

// Columns of a Fig. 3 row: the flow's outcome, then, in the traced
// Halfback cell only, one evCols-wide record per trace event.
const (
	f3FCT = iota // ms
	f3Timeouts
	f3NormalRetx
	f3ProactiveRetx
	f3Events // the first event record
)

// Columns of one trace event record: what the trace renderer and its
// summary read of the event.
const (
	evAt      = iota // sim.Time, ns
	evKind           // netem.TraceEventKind
	evPktKind        // netem.PacketKind
	evSeq
	evAckedSeq
	evCumAck
	evProactive  // 1 for a proactive copy
	evRetransmit // 1 for any copy after the first
	evCols
)

// fig3 reproduces the paper's Fig. 3 walkthrough as an executable
// exhibit: a 10-segment flow whose packet 9 (0-based: segment 8) loses
// its first copy. Halfback paces the ten segments across one RTT, then
// ROPR retransmits 10, 9, 8... per ACK; the proactive copy of the lost
// packet arrives before the sender is ever notified of the loss, so the
// flow finishes without a timeout — while vanilla TCP, run on the same
// scenario, waits out its RTO. Both schemes are universes on the same
// seed; only the Halfback cell records its wire trace, into its row.
var fig3 = &Spec{ID: "3", Title: "Fig. 3 walkthrough: ROPR recovers a lost packet",
	Plan: func(seed uint64, _ Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		names := []string{scheme.Halfback, scheme.TCP}
		return []Axis{{"scheme", names}}, func(at []int) (fleet.Row, error) {
			ps := NewPathSim(seed, netem.PathConfig{
				RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond, BufferBytes: 115_000,
			})
			rec := trace.NewRecorder()
			if at[0] == 0 {
				rec.Attach(ps.Path.Net)
			}
			// Swallow the first copy of segment 8 (the paper's "packet 9"
			// in 1-based numbering) at the client.
			ps.DropFirstCopies(8)
			st := ps.FetchOnce(scheme.MustNew(names[at[0]]), fig3Bytes, 60*sim.Second)
			row := fleet.Row{st.FCT().Seconds() * 1000, float64(st.Timeouts),
				float64(st.NormalRetx), float64(st.ProactiveRetx)}
			for _, ev := range rec.Events() {
				p := &ev.Pkt
				row = append(row, float64(ev.At), float64(ev.Kind), float64(p.Kind), float64(p.Seq),
					float64(p.AckedSeq), float64(p.CumAck), bit(p.Proactive), bit(p.Retransmit))
			}
			return row, nil
		}
	},
	Tables: func(g *Grid) []*metrics.Table {
		sum := metrics.NewTable("Fig.3 walkthrough: 10-segment flow, packet 9 lost once",
			"scheme", "fct_ms", "timeouts", "normal_retx", "proactive_retx")
		g.Each(func(at []int, r fleet.Row) {
			sum.AddRow(g.Axes[0].Labels[at[0]], r[f3FCT],
				int64(r[f3Timeouts]), int64(r[f3NormalRetx]), int64(r[f3ProactiveRetx]))
		})
		seq := metrics.NewTable("Fig.3 Halfback wire trace (d=data, a=ack; '+' proactive, '*' reactive)",
			"trace")
		seq.AddRow("see sequence below")
		return []*metrics.Table{sum, seq, sequenceAsTable(fig3Trace(g.At(scheme.Halfback)).Sequence())}
	},
}

// fig3Trace rebuilds the trace a Fig. 3 row records.
func fig3Trace(row fleet.Row) *trace.Recorder {
	var events []trace.Event
	for r := row[f3Events:]; len(r) >= evCols; r = r[evCols:] {
		events = append(events, trace.Event{
			At: sim.Time(r[evAt]), Kind: netem.TraceEventKind(r[evKind]),
			Pkt: netem.Packet{Kind: netem.PacketKind(r[evPktKind]), Seq: int32(r[evSeq]),
				AckedSeq: int32(r[evAckedSeq]), CumAck: int32(r[evCumAck]),
				Proactive: r[evProactive] != 0, Retransmit: r[evRetransmit] != 0},
		})
	}
	return trace.NewRecorder(events...)
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
