package trace

import (
	"strings"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

func buildNet(t *testing.T) (*sim.Scheduler, *netem.Network, *netem.Node, *netem.Node) {
	t.Helper()
	sched := sim.NewScheduler()
	n := netem.NewNetwork(sched, sim.NewRand(1))
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.AddLink(a, b, netem.LinkConfig{RateBps: 8_000_000, Delay: sim.Millisecond, BufferCap: 3000})
	n.ComputeRoutes()
	b.Deliver = func(*netem.Packet, sim.Time) {}
	return sched, n, a, b
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	sched, n, a, b := buildNet(t)
	rec := NewRecorder()
	rec.Attach(n)
	// 5 packets through a 3000-byte queue: one transmits immediately,
	// three fill the queue exactly, the fifth drops.
	for i := 0; i < 5; i++ {
		n.Inject(&netem.Packet{Kind: netem.KindData, Src: a.ID, Dst: b.ID, Seq: int32(i), Size: 1000}, 0)
	}
	sched.Run()
	s := rec.Summarize()
	if s.DataSent != 5 || s.DataDelivered != 4 || s.DataDropped != 1 {
		t.Fatalf("summary %+v", s)
	}
	// Events kept from the capture render and summarize as the capture
	// does.
	kept := NewRecorder(rec.Events()...)
	if kept.Sequence() != rec.Sequence() || kept.Summarize() != s {
		t.Fatalf("kept events render\n%s\nwant\n%s", kept.Sequence(), rec.Sequence())
	}
}

func TestSequenceRendering(t *testing.T) {
	sched, n, a, b := buildNet(t)
	rec := NewRecorder()
	rec.Attach(n)
	n.Inject(&netem.Packet{Kind: netem.KindData, Src: a.ID, Dst: b.ID, Seq: 3, Size: 100, Retransmit: true, Proactive: true}, 0)
	n.Inject(&netem.Packet{Kind: netem.KindAck, Src: a.ID, Dst: b.ID, AckedSeq: 2, CumAck: 3, Size: 40}, 0)
	sched.Run()
	out := rec.Sequence()
	if !strings.Contains(out, "d3+") {
		t.Fatalf("proactive tag missing:\n%s", out)
	}
	if !strings.Contains(out, "a2/c3") {
		t.Fatalf("ack tag missing:\n%s", out)
	}
}

func TestAttachComposes(t *testing.T) {
	sched, n, a, b := buildNet(t)
	prevCalls := 0
	n.Trace = func(netem.TraceEvent) { prevCalls++ }
	rec := NewRecorder()
	rec.Attach(n)
	n.Inject(&netem.Packet{Kind: netem.KindData, Src: a.ID, Dst: b.ID, Size: 100}, 0)
	sched.Run()
	if prevCalls == 0 {
		t.Fatal("previous hook must still fire")
	}
	if len(rec.Events()) == 0 {
		t.Fatal("recorder must also fire")
	}
}

func TestLabelKinds(t *testing.T) {
	cases := map[string]*netem.Packet{
		"d5":     {Kind: netem.KindData, Seq: 5},
		"d5*":    {Kind: netem.KindData, Seq: 5, Retransmit: true},
		"d5+":    {Kind: netem.KindData, Seq: 5, Retransmit: true, Proactive: true},
		"SYN":    {Kind: netem.KindSYN},
		"SYNACK": {Kind: netem.KindSYNACK},
		"p2":     {Kind: netem.KindProbe, Seq: 2},
		"pa2":    {Kind: netem.KindProbeAck, Seq: 2},
	}
	for want, pkt := range cases {
		if got := label(pkt); got != want {
			t.Errorf("label = %q, want %q", got, want)
		}
	}
}
