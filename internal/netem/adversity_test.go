package netem

import (
	"testing"
	"testing/quick"

	"halfback/internal/sim"
)

// advPair builds a two-node, one-link world for adversity unit tests.
func advPair(seed uint64, cfg LinkConfig) (*sim.Scheduler, *Network, *Node, *Node, *Link) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched, sim.NewRand(seed))
	a := net.AddNode("a")
	b := net.AddNode("b")
	l := net.AddLink(a, b, cfg)
	net.ComputeRoutes()
	return sched, net, a, b, l
}

// TestZeroAdversityIsIdentity: installing a zero-value Adversity must
// leave a run byte-for-byte identical to never touching the link —
// including the loss process, which draws from an RNG whose state a
// careless implementation would perturb by forking.
func TestZeroAdversityIsIdentity(t *testing.T) {
	run := func(install bool) (delivered []int32, dropped int64) {
		sched, net, a, b, l := advPair(42, LinkConfig{
			RateBps: 5 * Mbps, Delay: 2 * sim.Millisecond,
			BufferCap: 20_000, LossProb: 0.2,
		})
		if install {
			l.SetAdversity(Adversity{})
		}
		b.Deliver = func(pkt *Packet, now sim.Time) { delivered = append(delivered, pkt.Seq) }
		for i := 0; i < 200; i++ {
			seq := int32(i)
			sched.AtFunc(sim.Time(i)*sim.Time(200*sim.Microsecond), func(now sim.Time, _ any) {
				net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 1000}, now)
			}, nil)
		}
		sched.Run()
		return delivered, net.DroppedTotal
	}
	gotD, gotL := run(true)
	wantD, wantL := run(false)
	if gotL != wantL || len(gotD) != len(wantD) {
		t.Fatalf("zero adversity changed the run: %d/%d delivered, %d/%d dropped",
			len(gotD), len(wantD), gotL, wantL)
	}
	for i := range gotD {
		if gotD[i] != wantD[i] {
			t.Fatalf("delivery %d: seq %d != %d", i, gotD[i], wantD[i])
		}
	}
}

// TestAdversityDuplication: duplication creates extra deliveries and the
// generalized conservation law Injected+Duplicated == Delivered+Dropped
// holds exactly.
func TestAdversityDuplication(t *testing.T) {
	sched, net, a, b, l := advPair(7, LinkConfig{
		RateBps: 10 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20,
	})
	l.SetAdversity(Adversity{DupProb: 0.5})
	var delivered int64
	b.Deliver = func(*Packet, sim.Time) { delivered++ }
	const n = 500
	for i := 0; i < n; i++ {
		seq := int32(i)
		sched.AtFunc(sim.Time(i)*sim.Time(100*sim.Microsecond), func(now sim.Time, _ any) {
			net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 1000}, now)
		}, nil)
	}
	sched.Run()
	if net.DuplicatedTotal == 0 {
		t.Fatal("DupProb=0.5 over 500 packets produced no duplicates")
	}
	if l.Stats.Duplicated != net.DuplicatedTotal {
		t.Fatalf("link counted %d duplicates, network %d", l.Stats.Duplicated, net.DuplicatedTotal)
	}
	if delivered != n+net.DuplicatedTotal {
		t.Fatalf("delivered %d, want %d originals + %d duplicates", delivered, n, net.DuplicatedTotal)
	}
	if got := net.InjectedTotal + net.DuplicatedTotal; got != net.DeliveredTotal+net.DroppedTotal {
		t.Fatalf("conservation: injected+duplicated=%d != delivered+dropped=%d",
			got, net.DeliveredTotal+net.DroppedTotal)
	}
}

// TestAdversityCorruption: corruption marks packets and damages their
// checksum but never destroys them in the network layer.
func TestAdversityCorruption(t *testing.T) {
	sched, net, a, b, l := advPair(9, LinkConfig{
		RateBps: 10 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20,
	})
	l.SetAdversity(Adversity{CorruptProb: 0.3})
	var corrupted, clean int64
	const sum = 0xdeadbeefcafef00d
	b.Deliver = func(pkt *Packet, now sim.Time) {
		if pkt.Corrupted {
			corrupted++
			if pkt.PayloadSum == sum {
				t.Error("corrupted packet retains an undamaged checksum")
			}
		} else {
			clean++
			if pkt.PayloadSum != sum {
				t.Error("clean packet has a damaged checksum")
			}
		}
	}
	const n = 400
	for i := 0; i < n; i++ {
		seq := int32(i)
		sched.AtFunc(sim.Time(i)*sim.Time(150*sim.Microsecond), func(now sim.Time, _ any) {
			pkt := net.NewPacket()
			pkt.Kind, pkt.Src, pkt.Dst, pkt.Seq, pkt.Size = KindData, a.ID, b.ID, seq, 1000
			pkt.PayloadSum = sum
			net.Inject(pkt, now)
		}, nil)
	}
	sched.Run()
	if corrupted == 0 {
		t.Fatal("CorruptProb=0.3 over 400 packets corrupted nothing")
	}
	if corrupted+clean != n {
		t.Fatalf("corruption destroyed packets: %d+%d != %d", corrupted, clean, n)
	}
	if l.Stats.Corrupted != corrupted {
		t.Fatalf("link counted %d corruptions, observed %d", l.Stats.Corrupted, corrupted)
	}
}

// TestAdversityFlap: packets offered during the outage window drop;
// before and after they pass.
func TestAdversityFlap(t *testing.T) {
	sched, net, a, b, l := advPair(3, LinkConfig{
		RateBps: 10 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20,
	})
	down, up := sim.Time(10*sim.Millisecond), sim.Time(20*sim.Millisecond)
	l.SetAdversity(Adversity{Flaps: []Flap{{DownAt: down, UpAt: up}}})
	var delivered []sim.Time
	b.Deliver = func(pkt *Packet, now sim.Time) { delivered = append(delivered, pkt.SentAt) }
	for i := 0; i < 30; i++ {
		seq := int32(i)
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		sched.AtFunc(at, func(now sim.Time, _ any) {
			if now >= down && now < up && !l.Down() {
				t.Errorf("link up at %v inside flap window", now)
			}
			net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 500}, now)
		}, nil)
	}
	sched.Run()
	if l.Down() {
		t.Fatal("link still down after the flap window")
	}
	if l.Stats.FlapDrops != 10 {
		t.Fatalf("flap dropped %d packets, want the 10 offered in [10ms,20ms)", l.Stats.FlapDrops)
	}
	if len(delivered) != 20 {
		t.Fatalf("delivered %d packets, want 20", len(delivered))
	}
}

// TestAdversityBlackout: after BlackoutAt the link stays dark forever —
// every later packet is a flap drop, and Down() never clears.
func TestAdversityBlackout(t *testing.T) {
	sched, net, a, b, l := advPair(3, LinkConfig{
		RateBps: 10 * Mbps, Delay: sim.Millisecond, BufferCap: 1 << 20,
	})
	blackout := sim.Time(10 * sim.Millisecond)
	l.SetAdversity(Adversity{BlackoutAt: blackout})
	var delivered int64
	b.Deliver = func(pkt *Packet, now sim.Time) { delivered++ }
	for i := 0; i < 30; i++ {
		seq := int32(i)
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		sched.AtFunc(at, func(now sim.Time, _ any) {
			net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 500}, now)
		}, nil)
	}
	sched.Run()
	if !l.Down() {
		t.Fatal("link recovered from a permanent blackout")
	}
	if l.Stats.FlapDrops != 20 {
		t.Fatalf("blackout dropped %d packets, want the 20 offered from 10ms on", l.Stats.FlapDrops)
	}
	if delivered != 10 {
		t.Fatalf("delivered %d packets, want the 10 pre-blackout ones", delivered)
	}
	if got := net.InjectedTotal + net.DuplicatedTotal; got != net.DeliveredTotal+net.DroppedTotal {
		t.Fatalf("conservation: injected+duplicated=%d != delivered+dropped=%d",
			got, net.DeliveredTotal+net.DroppedTotal)
	}
}

// TestAdversityReorderProducesReordering: with reorder enabled a
// back-to-back train arrives out of order at least once, and with it
// disabled it never does (FIFO property).
func TestAdversityReorderProducesReordering(t *testing.T) {
	run := func(prob float64) bool {
		sched, net, a, b, l := advPair(11, LinkConfig{
			RateBps: 10 * Mbps, Delay: 2 * sim.Millisecond, BufferCap: 1 << 20,
		})
		if prob > 0 {
			l.SetAdversity(Adversity{ReorderProb: prob, ReorderDelay: 5 * sim.Millisecond})
		}
		last, reordered := int32(-1), false
		b.Deliver = func(pkt *Packet, now sim.Time) {
			if pkt.Seq < last {
				reordered = true
			}
			if pkt.Seq > last {
				last = pkt.Seq
			}
		}
		for i := 0; i < 100; i++ {
			net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: int32(i), Size: 1500}, 0)
		}
		sched.Run()
		return reordered
	}
	if !run(0.3) {
		t.Fatal("ReorderProb=0.3 never reordered a 100-packet train")
	}
	if run(0) {
		t.Fatal("adversity-free link reordered")
	}
}

// TestAdversityConservationProperty generalizes the conservation law to
// random adversity universes: injected + duplicated == delivered +
// dropped, for any knob combination.
func TestAdversityConservationProperty(t *testing.T) {
	f := func(seed uint64, nPkts, dupPct, corPct, lossPct uint8, flap bool) bool {
		sched, net, a, b, l := advPair(seed, LinkConfig{
			RateBps: 5 * Mbps, Delay: 2 * sim.Millisecond,
			BufferCap: 15_000, LossProb: float64(lossPct%20) / 100,
		})
		adv := Adversity{
			DupProb:     float64(dupPct%40) / 100,
			CorruptProb: float64(corPct%30) / 100,
			JitterProb:  0.2, JitterMax: sim.Millisecond,
			ReorderProb: 0.1,
		}
		if flap {
			adv.Flaps = []Flap{{DownAt: sim.Time(5 * sim.Millisecond), UpAt: sim.Time(9 * sim.Millisecond)}}
		}
		l.SetAdversity(adv)
		b.Deliver = func(*Packet, sim.Time) {}
		n := int(nPkts)%150 + 1
		rng := sim.NewRand(seed ^ 0x5a5a)
		for i := 0; i < n; i++ {
			at := sim.Time(rng.Intn(40)) * sim.Time(sim.Millisecond)
			seq := int32(i)
			sched.AtFunc(at, func(now sim.Time, _ any) {
				net.Inject(&Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Seq: seq, Size: 1000}, now)
			}, nil)
		}
		sched.Run()
		return net.InjectedTotal+net.DuplicatedTotal == net.DeliveredTotal+net.DroppedTotal &&
			net.InjectedTotal == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAdversityPresets: every published preset parses, "none" is
// disabled, the rest are enabled, and unknown names error.
func TestAdversityPresets(t *testing.T) {
	for _, name := range AdversityPresetNames() {
		a, err := AdversityPreset(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if name == "none" && a.Enabled() {
			t.Fatal(`preset "none" must be disabled`)
		}
		if name != "none" && !a.Enabled() {
			t.Fatalf("preset %q is a no-op", name)
		}
	}
	if _, err := AdversityPreset("bogus"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

// TestAdversityValidation: malformed configurations panic loudly at
// install time rather than corrupting a run.
func TestAdversityValidation(t *testing.T) {
	expectPanic := func(name string, adv Adversity) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: SetAdversity did not panic", name)
			}
		}()
		_, _, _, _, l := advPair(1, LinkConfig{RateBps: Mbps})
		l.SetAdversity(adv)
	}
	expectPanic("negative prob", Adversity{DupProb: -0.1})
	expectPanic("prob > 1", Adversity{CorruptProb: 1.5})
	expectPanic("empty flap", Adversity{Flaps: []Flap{{DownAt: 5, UpAt: 5}}})
}
