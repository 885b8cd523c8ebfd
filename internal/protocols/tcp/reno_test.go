package tcp_test

import (
	"testing"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/protocols/tcp"
	"halfback/internal/ptest"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

func transfer(t *testing.T, w *ptest.World, bytes int, conf tcp.Config) *transport.FlowStats {
	t.Helper()
	return w.Transfer(bytes, tcp.New(conf))
}

func TestSlowStartCleanTransfer(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	st := transfer(t, w, 100_000, tcp.Config{InitialWindow: 2})
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.NormalRetx != 0 || st.Timeouts != 0 {
		t.Fatalf("clean path: retx=%d to=%d", st.NormalRetx, st.Timeouts)
	}
	// 69 segments from ICW 2 with per-ACK doubling needs ~6 round
	// trips of growth: 2,4,8,16,32,64 → finishes in ≤7 RTT ≈ 700 ms.
	if fct := st.FCT(); fct < 500*sim.Millisecond || fct > 900*sim.Millisecond {
		t.Fatalf("slow-start FCT %v", fct)
	}
}

func TestICW10FinishesFaster(t *testing.T) {
	w2 := ptest.NewWorld(netem.PathConfig{})
	st2 := transfer(t, w2, 100_000, tcp.Config{InitialWindow: 2})
	w10 := ptest.NewWorld(netem.PathConfig{})
	st10 := transfer(t, w10, 100_000, tcp.Config{InitialWindow: 10})
	if !(st10.FCT() < st2.FCT()) {
		t.Fatalf("ICW10 (%v) should beat ICW2 (%v)", st10.FCT(), st2.FCT())
	}
}

func TestFastRetransmitWithoutTimeout(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(10)
	st := transfer(t, w, 100_000, tcp.Config{InitialWindow: 10})
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts != 0 {
		t.Fatalf("mid-flow loss should be SACK-recovered, timeouts=%d", st.Timeouts)
	}
	if st.NormalRetx != 1 {
		t.Fatalf("one retransmission expected, got %d", st.NormalRetx)
	}
}

func TestTailLossNeedsTimeout(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	// Last segment of a 69-segment flow: nothing above to SACK it.
	w.DropDataSeqs(68)
	st := transfer(t, w, 100_000, tcp.Config{InitialWindow: 10})
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.Timeouts == 0 {
		t.Fatal("pure tail loss requires the RTO for vanilla TCP")
	}
}

func TestMultipleLossesOneWindow(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	w.DropDataSeqs(5, 12, 20, 33, 40)
	st := transfer(t, w, 100_000, tcp.Config{InitialWindow: 10})
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.NormalRetx < 5 {
		t.Fatalf("all five holes must be retransmitted, got %d", st.NormalRetx)
	}
	if st.Timeouts != 0 {
		t.Fatalf("SACK recovery should cover mid-flow losses, timeouts=%d", st.Timeouts)
	}
}

func TestCongestionWindowOverflowsSmallBuffer(t *testing.T) {
	// A deep flow through a shallow buffer must experience loss and
	// still complete.
	w := ptest.NewWorld(netem.PathConfig{
		RateBps: 10 * netem.Mbps, RTT: 100 * sim.Millisecond, BufferBytes: 20_000,
	})
	st := transfer(t, w, 500_000, tcp.Config{InitialWindow: 10})
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if st.NormalRetx == 0 {
		t.Fatal("shallow buffer should force congestion losses")
	}
}

func TestPathCacheStoreAndLookup(t *testing.T) {
	c := tcp.NewPathCache()
	if _, ok := c.Lookup(1, 2); ok {
		t.Fatal("empty cache hit")
	}
	c.Store(1, 2, tcp.CacheEntry{Cwnd: 40, Ssthresh: 20})
	e, ok := c.Lookup(1, 2)
	if !ok || e.Cwnd != 40 || e.Ssthresh != 20 {
		t.Fatalf("lookup %+v ok=%v", e, ok)
	}
	if _, ok := c.Lookup(2, 1); ok {
		t.Fatal("reverse direction must be a different path")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestTCPCacheWarmStartIsFaster(t *testing.T) {
	cache := tcp.NewPathCache()
	w := ptest.NewWorld(netem.PathConfig{})
	cold := transfer(t, w, 100_000, tcp.Config{InitialWindow: 2, Cache: cache})
	if cache.Len() != 1 {
		t.Fatal("first flow should populate the cache")
	}
	warm := transfer(t, w, 100_000, tcp.Config{InitialWindow: 2, Cache: cache})
	if !(warm.FCT() < cold.FCT()) {
		t.Fatalf("warm start (%v) should beat cold start (%v)", warm.FCT(), cold.FCT())
	}
}

func TestOnSendHookFires(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	sends := 0
	conf := tcp.Config{InitialWindow: 2, OnSend: func(env cc.Env, seq int32, retransmit bool, now sim.Time) {
		sends++
	}}
	st := transfer(t, w, 50_000, conf)
	if int64(sends) != st.DataPktsSent {
		t.Fatalf("hook saw %d sends, stats say %d", sends, st.DataPktsSent)
	}
}

func TestRenoWindowHalvesOnLoss(t *testing.T) {
	w := ptest.NewWorld(netem.PathConfig{})
	reno := tcp.NewReno(tcp.Config{InitialWindow: 10})
	conn := w.Dial(200_000, transport.Options{}, func() cc.Controller { return reno })
	w.DropDataSeqs(20)
	conn.Start(0)
	w.Sched.RunUntil(sim.Time(60 * sim.Second))
	conn.Abort()
	if !conn.Stats.Completed {
		t.Fatal("did not complete")
	}
	// After recovery the window must sit at ssthresh (halved pipe),
	// far below the slow-start ceiling.
	if reno.Ssthresh >= 1<<19 {
		t.Fatal("loss never adjusted ssthresh")
	}
	if reno.Cwnd > 100 {
		t.Fatalf("cwnd %v did not deflate", reno.Cwnd)
	}
}
