// Package halfback is the public facade of this repository: a
// reproduction of "Halfback: Running Short Flows Quickly and Safely"
// (Li, Dong, Godfrey — CoNEXT 2015) as a deterministic discrete-event
// network simulation plus eight transport rate-control schemes.
//
// The package offers three levels of entry:
//
//   - Fetch runs a single download of any scheme over a configurable
//     wide-area path and returns its flow statistics — the quickest way
//     to see Halfback's behaviour (examples/quickstart).
//   - Dumbbell builds the paper's Fig. 4 shared-bottleneck topology and
//     lets callers schedule arbitrary flow workloads on it.
//   - Exhibits regenerates any table or figure of the paper via the
//     experiment registry (cmd/halfback-sim wraps it).
//
// Everything is stdlib-only and fully deterministic: the same seed
// always produces the same packets, drops and completion times.
package halfback

import (
	"time"

	"halfback/internal/experiment"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/trace"
	"halfback/internal/transport"
)

// Scheme names accepted by Fetch and the workload helpers. They match
// the paper's labels.
const (
	TCP             = scheme.TCP
	TCP10           = scheme.TCP10
	TCPCache        = scheme.TCPCache
	Reactive        = scheme.Reactive
	Proactive       = scheme.Proactive
	JumpStart       = scheme.JumpStart
	PCP             = scheme.PCP
	Halfback        = scheme.Halfback
	HalfbackForward = scheme.HalfbackForward
	HalfbackBurst   = scheme.HalfbackBurst
	PacingOnly      = scheme.PacingOnly
)

// Schemes returns every available scheme name.
func Schemes() []string { return scheme.AllNames() }

// FlowStats is the per-flow outcome record (completion time,
// retransmission counts, loss exposure).
type FlowStats = transport.FlowStats

// PathConfig describes a single end-to-end path for Fetch.
type PathConfig struct {
	// RateBps is the bottleneck rate in bits/s (default 15 Mbit/s).
	RateBps int64
	// RTT is the two-way propagation delay (default 60 ms).
	RTT time.Duration
	// BufferBytes is the bottleneck drop-tail queue capacity
	// (default: the path's bandwidth-delay product).
	BufferBytes int
	// LossProb adds independent random loss in each direction.
	LossProb float64
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// ZeroRTT skips the connection handshake, as TCP Fast Open would
	// (the paper's §6 lists such mechanisms as orthogonal drop-ins);
	// the sender paces against RTT as its hint.
	ZeroRTT bool
	// DropSeqs lists segment numbers whose *first* copy is silently
	// dropped — targeted loss injection for walkthroughs like the
	// paper's Fig. 3.
	DropSeqs []int32
}

func (c *PathConfig) applyDefaults() {
	if c.RateBps == 0 {
		c.RateBps = 15 * netem.Mbps
	}
	if c.RTT == 0 {
		c.RTT = 60 * time.Millisecond
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = int(c.RateBps / 8 * int64(c.RTT) / int64(time.Second))
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fetch downloads flowBytes over the configured path using the named
// scheme and returns the flow's statistics. The virtual clock runs until
// the flow completes or 120 virtual seconds elapse.
func Fetch(schemeName string, flowBytes int, cfg PathConfig) (*FlowStats, error) {
	st, _, err := run(schemeName, flowBytes, cfg, false)
	return st, err
}

// FetchTrace is Fetch plus the flow's full wire trace: a rendered
// time-sequence diagram (data, ACKs, drops; proactive copies tagged '+'
// and reactive retransmissions '*') and an aggregate wire summary. It is
// the programmatic form of the paper's Fig. 3 walkthrough.
func FetchTrace(schemeName string, flowBytes int, cfg PathConfig) (*FlowStats, *Trace, error) {
	st, tr, err := run(schemeName, flowBytes, cfg, true)
	return st, tr, err
}

// Trace is a flow's observed wire behaviour.
type Trace struct {
	// Sequence is the rendered time-sequence diagram.
	Sequence string
	// DataSent counts data transmissions (including all copies);
	// ProactiveSent and ReactiveSent split the retransmissions;
	// DataDropped and DataDelivered account for every copy's fate.
	DataSent, ProactiveSent, ReactiveSent int
	DataDropped, DataDelivered            int
}

func run(schemeName string, flowBytes int, cfg PathConfig, withTrace bool) (*FlowStats, *Trace, error) {
	inst, err := scheme.New(schemeName)
	if err != nil {
		return nil, nil, err
	}
	cfg.applyDefaults()
	ps := experiment.NewPathSim(cfg.Seed, netem.PathConfig{
		RateBps: cfg.RateBps, RTT: sim.Duration(cfg.RTT),
		BufferBytes: cfg.BufferBytes, LossProb: cfg.LossProb,
	})
	if cfg.ZeroRTT {
		ps.Opts.ZeroRTT = true
		ps.Opts.RTTHint = sim.Duration(cfg.RTT)
	}
	var rec *trace.Recorder
	if withTrace {
		rec = trace.NewRecorder()
		rec.Attach(ps.Path.Net)
	}
	if len(cfg.DropSeqs) > 0 {
		pending := make(map[int32]bool, len(cfg.DropSeqs))
		for _, s := range cfg.DropSeqs {
			pending[s] = true
		}
		inner := ps.Path.Client.Deliver
		ps.Path.Client.Deliver = func(pkt *netem.Packet, now sim.Time) {
			if pkt.Kind == netem.KindData && !pkt.Retransmit && pending[pkt.Seq] {
				delete(pending, pkt.Seq)
				return
			}
			inner(pkt, now)
		}
	}
	st := ps.FetchOnce(inst, flowBytes, 120*sim.Second)
	if rec == nil {
		return st, nil, nil
	}
	sum := rec.Summarize()
	return st, &Trace{
		Sequence:      rec.Sequence(),
		DataSent:      sum.DataSent,
		ProactiveSent: sum.ProactiveSent,
		ReactiveSent:  sum.ReactiveSent,
		DataDropped:   sum.DataDropped,
		DataDelivered: sum.DataDelivered,
	}, nil
}

// Exhibit regenerates one exhibit of the registry — a table or figure
// of the paper, or an extension; ExhibitIDs lists the IDs — at the
// given scale in (0,1], returning rendered tables. Scale 1 is paper
// scale; smaller values shrink trial counts and horizons
// proportionally.
func Exhibit(id string, seed uint64, scale float64) ([]*metrics.Table, error) {
	e, err := experiment.Lookup(id)
	if err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	res := e.Run(seed, experiment.Scale{Trials: scale, Horizon: scale})
	return res.Tables(), nil
}

// ExhibitIDs lists the available exhibits with their titles.
func ExhibitIDs() map[string]string {
	out := make(map[string]string)
	for _, e := range experiment.Registry() {
		out[e.ID] = e.Title
	}
	return out
}
