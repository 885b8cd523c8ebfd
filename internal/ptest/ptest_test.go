package ptest

import (
	"testing"

	"halfback/internal/netem"
	"halfback/internal/protocols/tcp"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

func TestWorldDefaults(t *testing.T) {
	w := NewWorld(netem.PathConfig{})
	if w.Path.Config().RateBps != 10*netem.Mbps {
		t.Fatal("default rate")
	}
	st := w.Transfer(10_000, tcp.New(tcp.Config{}))
	if !st.Completed {
		t.Fatal("default world cannot carry a flow")
	}
}

func TestDropDataSeqsDropsFirstCopyOnly(t *testing.T) {
	w := NewWorld(netem.PathConfig{})
	seen := map[int32]int{}
	w.TapClient(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindData {
			seen[pkt.Seq]++
		}
		return true
	})
	w.DropDataSeqs(3)
	st := w.Transfer(20_000, tcp.New(tcp.Config{InitialWindow: 10}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// Segment 3's first copy was swallowed before the tap-through
	// delivery, so the receiver saw only the retransmission.
	if seen[3] != 1 {
		t.Fatalf("segment 3 delivered %d times, want 1 (the retransmission)", seen[3])
	}
	if seen[2] != 1 {
		t.Fatalf("segment 2 delivered %d times", seen[2])
	}
}

func TestCountDataClassification(t *testing.T) {
	w := NewWorld(netem.PathConfig{})
	first, retx, pro := w.CountData()
	w.DropDataSeqs(1)
	st := w.Transfer(20_000, tcp.New(tcp.Config{InitialWindow: 10}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	// 14 segments; one dropped first copy never reaches the counter.
	if *first != 13 {
		t.Fatalf("first copies %d, want 13", *first)
	}
	if *retx != 1 || *pro != 0 {
		t.Fatalf("retx=%d pro=%d", *retx, *pro)
	}
}

func TestTapServerSeesAcks(t *testing.T) {
	w := NewWorld(netem.PathConfig{})
	acks := 0
	w.TapServer(func(pkt *netem.Packet, now sim.Time) bool {
		if pkt.Kind == netem.KindAck {
			acks++
		}
		return true
	})
	st := w.Transfer(20_000, tcp.New(tcp.Config{}))
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if acks < 14 {
		t.Fatalf("per-packet ACKs expected, saw %d", acks)
	}
}

func TestDialAssignsDistinctFlowIDs(t *testing.T) {
	w := NewWorld(netem.PathConfig{})
	a := w.Dial(1000, transport.Options{}, tcp.New(tcp.Config{}))
	b := w.Dial(1000, transport.Options{}, tcp.New(tcp.Config{}))
	if a.ID == b.ID {
		t.Fatal("flow IDs must be unique")
	}
}
