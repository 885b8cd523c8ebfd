package transport

import (
	"strings"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

// mkVal returns a keyed validator and a scoreboard for an n-segment
// flow with segments [0,sent) transmitted once.
func mkVal(n, sent int32) (*AckValidator, *Scoreboard) {
	v := &AckValidator{}
	v.Init(7)
	s := NewScoreboard(n)
	for seq := int32(0); seq < sent; seq++ {
		s.NoteSend(seq, false)
	}
	return v, s
}

// honestAck builds the ACK an honest receiver holding exactly
// [0,cum) ∪ ranges would emit: correct receipt-proof fold and a
// receive count covering every claimed segment.
func honestAck(v *AckValidator, cum int32, ranges ...netem.SeqRange) *netem.Packet {
	pkt := &netem.Packet{Kind: netem.KindAck, CumAck: cum, AckedSeq: -1}
	claimed := cum
	for seq := int32(0); seq < cum; seq++ {
		pkt.Nonce ^= v.SegNonce(seq)
	}
	for _, r := range ranges {
		pkt.SACK[pkt.NumSACK] = r
		pkt.NumSACK++
		claimed += r.Hi - r.Lo
		for seq := r.Lo; seq < r.Hi; seq++ {
			pkt.Nonce ^= v.SegNonce(seq)
		}
	}
	pkt.RecvTotal = claimed
	return pkt
}

func TestValidateHonestSequence(t *testing.T) {
	v, s := mkVal(20, 20)
	steps := []*netem.Packet{
		honestAck(v, 1),
		honestAck(v, 2, netem.SeqRange{Lo: 4, Hi: 6}),
		honestAck(v, 2, netem.SeqRange{Lo: 4, Hi: 7}, netem.SeqRange{Lo: 9, Hi: 10}),
		honestAck(v, 10, netem.SeqRange{Lo: 12, Hi: 13}),
		honestAck(v, 20),
	}
	for i, pkt := range steps {
		if class := v.Check(s, pkt, 20); class != MisbehaviorNone {
			t.Fatalf("honest ack %d flagged: %v", i, class)
		}
		s.Update(pkt)
		v.Commit(s)
	}
	if !s.AllAcked() {
		t.Fatal("flow should be fully acked")
	}
	// A replayed final ACK claims nothing new: clean, budgeted as a dup.
	if class := v.Check(s, honestAck(v, 20), 20); class != MisbehaviorNone {
		t.Fatalf("replay flagged: %v", class)
	}
	if v.DupAcks() != 1 {
		t.Fatalf("dupAcks %d", v.DupAcks())
	}
}

func TestValidateStaleReorderedAck(t *testing.T) {
	// An old ACK arriving after the cumulative point moved past it must
	// not be flagged: it restates known state (dup path), or proves a
	// still-new SACK range against a recomputed prefix fold.
	v, s := mkVal(20, 20)
	fresh := honestAck(v, 10)
	if v.Check(s, fresh, 20) != MisbehaviorNone {
		t.Fatal("fresh ack flagged")
	}
	s.Update(fresh)
	v.Commit(s)
	stale := honestAck(v, 3, netem.SeqRange{Lo: 5, Hi: 6})
	if class := v.Check(s, stale, 20); class != MisbehaviorNone {
		t.Fatalf("stale duplicate flagged: %v", class)
	}
	staleNew := honestAck(v, 3, netem.SeqRange{Lo: 14, Hi: 16})
	if class := v.Check(s, staleNew, 20); class != MisbehaviorNone {
		t.Fatalf("stale ack with new SACK flagged: %v", class)
	}
}

func TestValidateOptimisticAck(t *testing.T) {
	v, s := mkVal(20, 5) // only [0,5) ever sent
	if class := v.Check(s, honestAck(v, 5), 5); class != MisbehaviorNone {
		t.Fatalf("acking all sent data flagged: %v", class)
	}
	pkt := honestAck(v, 6) // knows the nonces it shouldn't: window check fires first
	if class := v.Check(s, pkt, 5); class != MisbehaviorOptimisticAck {
		t.Fatalf("got %v, want optimistic-ack", class)
	}
	// Optimistic ACK within the sent window but without receipt proof.
	guess := &netem.Packet{Kind: netem.KindAck, CumAck: 4, AckedSeq: -1, RecvTotal: 4, Nonce: 0xdead}
	if class := v.Check(s, guess, 5); class != MisbehaviorNonceMismatch {
		t.Fatalf("got %v, want nonce-mismatch", class)
	}
}

func TestValidateSackFabrication(t *testing.T) {
	v, s := mkVal(20, 10)
	// Correct shape, fabricated receipt: the fold over the claimed
	// range cannot be produced without the segment nonces.
	lie := honestAck(v, 0, netem.SeqRange{Lo: 3, Hi: 5})
	lie.Nonce = 0x1234
	if class := v.Check(s, lie, 10); class != MisbehaviorNonceMismatch {
		t.Fatalf("got %v, want nonce-mismatch", class)
	}
	// Range beyond the sent window.
	oow := honestAck(v, 0, netem.SeqRange{Lo: 11, Hi: 15})
	if class := v.Check(s, oow, 10); class != MisbehaviorSackOutOfWindow {
		t.Fatalf("got %v, want sack-out-of-window", class)
	}
}

func TestValidateSackMalformed(t *testing.T) {
	v, s := mkVal(20, 10)
	cases := []struct {
		name   string
		ranges []netem.SeqRange
		cum    int32
	}{
		{"inverted", []netem.SeqRange{{Lo: 6, Hi: 4}}, 0},
		{"empty", []netem.SeqRange{{Lo: 4, Hi: 4}}, 0},
		{"touches-cum", []netem.SeqRange{{Lo: 2, Hi: 4}}, 2},
		{"below-cum", []netem.SeqRange{{Lo: 1, Hi: 2}}, 3},
		{"overlapping", []netem.SeqRange{{Lo: 3, Hi: 6}, {Lo: 5, Hi: 8}}, 0},
	}
	for _, tc := range cases {
		pkt := &netem.Packet{Kind: netem.KindAck, CumAck: tc.cum, AckedSeq: -1, RecvTotal: 19}
		for _, r := range tc.ranges {
			pkt.SACK[pkt.NumSACK] = r
			pkt.NumSACK++
		}
		if class := v.Check(s, pkt, 10); class != MisbehaviorSackMalformed {
			t.Fatalf("%s: got %v, want sack-malformed", tc.name, class)
		}
	}
	// Exact duplicate ranges are normalized away, not flagged: an
	// honest trigger block can coincide with a scan block.
	dup := honestAck(v, 0, netem.SeqRange{Lo: 3, Hi: 5})
	dup.SACK[1] = dup.SACK[0]
	dup.NumSACK = 2
	if class := v.Check(s, dup, 10); class != MisbehaviorNone {
		t.Fatalf("duplicate range flagged: %v", class)
	}
}

func TestValidateAckMalformed(t *testing.T) {
	v, s := mkVal(20, 10)
	bad := []*netem.Packet{
		{Kind: netem.KindAck, CumAck: -1, AckedSeq: -1},
		{Kind: netem.KindAck, AckedSeq: -2},
		{Kind: netem.KindAck, AckedSeq: 20},
		{Kind: netem.KindAck, AckedSeq: -1, RecvTotal: -3},
		{Kind: netem.KindAck, AckedSeq: -1, NumSACK: netem.MaxSACKBlocks + 1},
		{Kind: netem.KindAck, AckedSeq: -1, NumSACK: -1},
	}
	for i, pkt := range bad {
		if class := v.Check(s, pkt, 10); class != MisbehaviorAckMalformed {
			t.Fatalf("case %d: got %v, want ack-malformed", i, class)
		}
	}
}

func TestValidateAckCounting(t *testing.T) {
	v, s := mkVal(20, 10)
	// Claims 5 segments but admits receiving only 2 packets.
	div := honestAck(v, 5)
	div.RecvTotal = 2
	if class := v.Check(s, div, 10); class != MisbehaviorAckCounting {
		t.Fatalf("got %v, want ack-counting (undercount)", class)
	}
	// Claims more receptions than the sender ever transmitted (plus
	// the duplication headroom).
	inflate := honestAck(v, 5)
	inflate.RecvTotal = int32(2*10 + dupAckBudgetBase + 1)
	if class := v.Check(s, inflate, 10); class != MisbehaviorAckCounting {
		t.Fatalf("got %v, want ack-counting (inflation)", class)
	}
}

func TestValidateDupAckFlood(t *testing.T) {
	v, s := mkVal(20, 10)
	first := honestAck(v, 5)
	if v.Check(s, first, 10) != MisbehaviorNone {
		t.Fatal("setup ack flagged")
	}
	s.Update(first)
	v.Commit(s)
	budget := int64(dupAckBudgetBase + dupAckBudgetPerSend*10)
	dup := honestAck(v, 5)
	for i := int64(0); i < budget; i++ {
		if class := v.Check(s, dup, 10); class != MisbehaviorNone {
			t.Fatalf("dup %d flagged early: %v", i, class)
		}
	}
	if class := v.Check(s, dup, 10); class != MisbehaviorDupAckFlood {
		t.Fatalf("got %v, want dupack-flood", class)
	}
}

func TestPeerMisbehaviorStrings(t *testing.T) {
	seen := map[string]bool{}
	for m := MisbehaviorNone; m < NumPeerMisbehaviors; m++ {
		str := m.String()
		if str == "" || strings.HasPrefix(str, "PeerMisbehavior(") {
			t.Fatalf("class %d lacks a name: %q", m, str)
		}
		if seen[str] {
			t.Fatalf("duplicate name %q", str)
		}
		seen[str] = true
	}
	if got := NumPeerMisbehaviors.String(); !strings.HasPrefix(got, "PeerMisbehavior(") {
		t.Fatalf("out-of-range fallback: %q", got)
	}
}

func TestAckValidationModeStrings(t *testing.T) {
	for mode, want := range map[AckValidationMode]string{
		AckValidationClamp: "clamp",
		AckValidationAbort: "abort",
		AckValidationOff:   "off",
	} {
		if got := mode.String(); got != want {
			t.Fatalf("mode %d: %q != %q", mode, got, want)
		}
	}
	if got := AckValidationMode(9).String(); !strings.HasPrefix(got, "AckValidationMode(") {
		t.Fatalf("fallback: %q", got)
	}
}

// TestHonestPathIdentity is the honest-path identity guarantee at the
// transport level: the same lossy universe produces bit-identical flow
// statistics and event counts whether validation is off, clamping, or
// arming aborts — an honest receiver never trips a check, and the
// validator schedules nothing.
func TestHonestPathIdentity(t *testing.T) {
	run := func(mode AckValidationMode) (FlowStats, uint64) {
		w := newWorld(t, cleanPath())
		w.path.Forward.LossProb = 0.05
		w.path.Back.LossProb = 0.02
		conn, _ := dial(t, w, 200_000, Options{AckValidation: mode})
		conn.Start(0)
		w.sched.Run()
		if !conn.Stats.Completed {
			t.Fatalf("mode %v: flow did not complete", mode)
		}
		return *conn.Stats, w.sched.Processed
	}
	off, offEvents := run(AckValidationOff)
	clamp, clampEvents := run(AckValidationClamp)
	abort, abortEvents := run(AckValidationAbort)
	if off != clamp || off != abort {
		t.Fatalf("stats diverge:\n off   %+v\n clamp %+v\n abort %+v", off, clamp, abort)
	}
	if offEvents != clampEvents || offEvents != abortEvents {
		t.Fatalf("event counts diverge: off=%d clamp=%d abort=%d",
			offEvents, clampEvents, abortEvents)
	}
	if off.MisbehaviorTotal() != 0 {
		t.Fatalf("honest flow flagged: %+v", off.Misbehavior)
	}
}

// TestHonestValidatorZeroAllocs pins the validator's honest-path cost
// at zero allocations per validated ACK — the guarantee that keeps the
// hot path's allocations per event (the harness's
// experiment.allocs_per_event) flat with validation always on.
// Exercised over the three shapes that occur on an honest path:
// cumulative progress, new SACK information, and a pure duplicate.
func TestHonestValidatorZeroAllocs(t *testing.T) {
	v, s := mkVal(64, 64)
	setup := honestAck(v, 8, netem.SeqRange{Lo: 10, Hi: 12})
	if v.Check(s, setup, 1000) != MisbehaviorNone {
		t.Fatal("setup flagged")
	}
	s.Update(setup)
	v.Commit(s)
	progress := honestAck(v, 9, netem.SeqRange{Lo: 10, Hi: 13}) // claims new data
	dup := honestAck(v, 8, netem.SeqRange{Lo: 10, Hi: 12})      // claims nothing new
	allocs := testing.AllocsPerRun(200, func() {
		if v.Check(s, progress, 1000) != MisbehaviorNone {
			t.Fatal("progress ack flagged")
		}
		if v.Check(s, dup, 1000) != MisbehaviorNone {
			t.Fatal("dup ack flagged")
		}
		v.Commit(s)
	})
	if allocs != 0 {
		t.Fatalf("validator allocates %.1f allocs/op on the honest path, want 0", allocs)
	}
}

// TestMisbehaviorAbortEndToEnd drives a live Conn against an inline
// lying receiver and checks the full abort plumbing: stats counters,
// FirstMisbehavior, AbortPeerMisbehavior, and a drainable scheduler.
func TestMisbehaviorAbortEndToEnd(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 100_000, Options{AckValidation: AckValidationAbort})
	conn.SetReceiverLogic(optimistTestLogic{})
	conn.Start(0)
	w.sched.Run()
	st := conn.Stats
	if st.Completed {
		t.Fatal("lying receiver must not yield a completed flow")
	}
	if !st.Aborted || st.AbortReason != AbortPeerMisbehavior {
		t.Fatalf("aborted=%v reason=%v, want peer-misbehavior", st.Aborted, st.AbortReason)
	}
	if st.FirstMisbehavior == MisbehaviorNone || st.MisbehaviorTotal() == 0 {
		t.Fatalf("misbehavior not recorded: %+v", st.Misbehavior)
	}
	if err := st.AbortError(); err == nil {
		t.Fatal("AbortError must be non-nil for a misbehavior abort")
	}
	if w.sched.Pending() != 0 {
		t.Fatalf("%d events leaked after abort", w.sched.Pending())
	}
}

// TestMisbehaviorClampSoldiersOn verifies the default clamp policy:
// flagged ACKs are dropped, the flow never falsely completes, and the
// existing retransmission budget eventually bounds the attempt.
func TestMisbehaviorClampSoldiersOn(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 100_000, Options{})
	conn.SetReceiverLogic(optimistTestLogic{})
	conn.Start(0)
	w.sched.RunUntil(sim.Time(3600 * sim.Second))
	st := conn.Stats
	if st.Completed {
		t.Fatal("clamped flow must not complete against a liar")
	}
	if !st.Aborted || st.AbortReason != AbortRetxBudgetExhausted {
		t.Fatalf("aborted=%v reason=%v, want retx-budget", st.Aborted, st.AbortReason)
	}
	if st.MisbehaviorTotal() == 0 {
		t.Fatal("clamp mode must still count flagged ACKs")
	}
	conn.Abort()
	w.sched.Run()
	if w.sched.Pending() != 0 {
		t.Fatalf("%d events leaked", w.sched.Pending())
	}
}

// optimistTestLogic is a minimal in-package lying receiver: it
// completes the handshake honestly, then claims the whole flow on the
// first data packet without knowing the nonces.
type optimistTestLogic struct{}

func (optimistTestLogic) OnReceiverPacket(c *Conn, pkt *netem.Packet, now sim.Time) {
	switch pkt.Kind {
	case netem.KindSYN:
		c.EmitFromReceiver(func(p *netem.Packet) {
			p.Kind = netem.KindSYNACK
			p.Size = netem.ControlSize
			p.Window = c.Opts.FlowWindow
		}, now)
	case netem.KindData:
		c.EmitFromReceiver(func(p *netem.Packet) {
			p.Kind = netem.KindAck
			p.CumAck = c.NumSegs()
			p.AckedSeq = pkt.Seq
			p.RecvTotal = c.NumSegs()
			p.Nonce = pkt.Nonce // best guess: the one nonce it has seen
		}, now)
	}
}

func (optimistTestLogic) OnReceiverReap(c *Conn) {}
