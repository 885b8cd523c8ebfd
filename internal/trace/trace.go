// Package trace turns netem's packet life-cycle hooks into per-flow
// timelines and renders them as text time-sequence diagrams — the tool
// behind the Fig. 3 walkthrough exhibit and a general debugging aid for
// protocol work ("what did this flow actually put on the wire, when?").
package trace

import (
	"fmt"
	"strings"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

// Event is one packet observation, enriched with the flow-relative
// classification the renderers need.
type Event struct {
	At   sim.Time
	Kind netem.TraceEventKind
	Pkt  netem.Packet
}

// Recorder collects the events of every flow on a network.
type Recorder struct {
	events []Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach installs the recorder on a network. Only one tracer can be
// attached at a time; Attach composes with any previously installed hook.
func (r *Recorder) Attach(n *netem.Network) {
	prev := n.Trace
	n.Trace = func(ev netem.TraceEvent) {
		if prev != nil {
			prev(ev)
		}
		r.events = append(r.events, Event{At: ev.At, Kind: ev.Kind, Pkt: ev.Pkt})
	}
}

// Events returns the captured events in observation order.
func (r *Recorder) Events() []Event { return r.events }

// Count returns how many events matched (kind, packet kind) filters; use
// netem.TraceSend etc. and netem.KindData etc.
func (r *Recorder) Count(kind netem.TraceEventKind, pktKind netem.PacketKind) int {
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind && ev.Pkt.Kind == pktKind {
			n++
		}
	}
	return n
}

// label renders a compact per-packet tag like "d7", "d7*" (reactive
// retransmission), "d7+" (proactive copy), "a3" (ACK covering seq 3),
// "SYN", "SYNACK".
func label(p *netem.Packet) string {
	switch p.Kind {
	case netem.KindData:
		suffix := ""
		if p.Proactive {
			suffix = "+"
		} else if p.Retransmit {
			suffix = "*"
		}
		return fmt.Sprintf("d%d%s", p.Seq, suffix)
	case netem.KindAck:
		return fmt.Sprintf("a%d/c%d", p.AckedSeq, p.CumAck)
	case netem.KindSYN:
		return "SYN"
	case netem.KindSYNACK:
		return "SYNACK"
	case netem.KindProbe:
		return fmt.Sprintf("p%d", p.Seq)
	case netem.KindProbeAck:
		return fmt.Sprintf("pa%d", p.Seq)
	default:
		return "?"
	}
}

// Sequence renders the flow's events as a two-column time-sequence
// diagram: sender-side emissions on the left, receiver-side arrivals on
// the right, drops marked inline — the textual equivalent of the paper's
// Fig. 3.
func (r *Recorder) Sequence() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %-6s %-12s\n", "time", "event", "packet")
	fmt.Fprintf(&b, "%12s  %-6s %-12s\n", strings.Repeat("-", 12), "-----", "------")
	for _, ev := range r.events {
		fmt.Fprintf(&b, "%12s  %-6s %-12s\n", ev.At.String(), ev.Kind.String(), label(&ev.Pkt))
	}
	return b.String()
}

// Summary aggregates a flow's wire behaviour.
type Summary struct {
	DataSent      int
	ProactiveSent int
	ReactiveSent  int
	DataDropped   int
	DataDelivered int
	AcksDelivered int
}

// Summarize computes the Summary over the captured events.
func (r *Recorder) Summarize() Summary {
	var s Summary
	for _, ev := range r.events {
		switch {
		case ev.Pkt.Kind == netem.KindData && ev.Kind == netem.TraceSend:
			s.DataSent++
			if ev.Pkt.Proactive {
				s.ProactiveSent++
			} else if ev.Pkt.Retransmit {
				s.ReactiveSent++
			}
		case ev.Pkt.Kind == netem.KindData && ev.Kind == netem.TraceDrop:
			s.DataDropped++
		case ev.Pkt.Kind == netem.KindData && ev.Kind == netem.TraceRecv:
			s.DataDelivered++
		case ev.Pkt.Kind == netem.KindAck && ev.Kind == netem.TraceRecv:
			s.AcksDelivered++
		}
	}
	return s
}
