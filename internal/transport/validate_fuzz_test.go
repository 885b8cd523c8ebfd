package transport

import (
	"encoding/binary"
	"testing"

	"halfback/internal/netem"
)

// FuzzAckValidate feeds adversarial ACKs — every field the validator
// and the scoreboard read, drawn freely; sack is up to MaxSACKBlocks
// big-endian {lo, hi int32} pairs, a trailing partial pair ignored —
// into the validator in front of a mid-flight scoreboard. The contract
// under test: the validator never panics, every rejection carries a
// defined PeerMisbehavior class, an accepted ACK never regresses the
// cumulative-ACK point, and the verdict is deterministic (checking the
// same ACK twice against unchanged state agrees, modulo the dup-ACK
// budget drawing down). After every Commit, foldTo(k) must equal a
// from-zero fold for every k up to HighSent+1 — below the incremental
// fold's point too, the path a reordered straggler takes.
func FuzzAckValidate(f *testing.F) {
	f.Add(int32(4), int32(-1), int32(4), uint64(0), []byte(nil))
	f.Add(int32(64), int32(-1), int32(64), uint64(0), []byte(nil))
	f.Add(int32(4), int32(7), int32(7), uint64(0), []byte{0, 0, 0, 6, 0, 0, 0, 9, 0xff})
	f.Fuzz(func(t *testing.T, cum, acked, recvTotal int32, nonce uint64, sack []byte) {
		pkt := &netem.Packet{Kind: netem.KindAck, CumAck: cum, AckedSeq: acked, RecvTotal: recvTotal, Nonce: nonce}
		for ; pkt.NumSACK < netem.MaxSACKBlocks && len(sack) >= 8; sack = sack[8:] {
			pkt.SACK[pkt.NumSACK] = netem.SeqRange{
				Lo: int32(binary.BigEndian.Uint32(sack)), Hi: int32(binary.BigEndian.Uint32(sack[4:])),
			}
			pkt.NumSACK++
		}

		// A mid-flight flow: 24 segments, [0,16) transmitted, honest
		// progress to cum=4 with {6,7} SACKed.
		v, s := mkVal(24, 16)
		warm := honestAck(v, 4, netem.SeqRange{Lo: 6, Hi: 8})
		if v.Check(s, warm, 16) != MisbehaviorNone {
			t.Fatal("warmup ack flagged")
		}
		s.Update(warm)
		v.Commit(s)
		checkFolds(t, v, s)

		before := s.CumAck()
		class := v.Check(s, pkt, 16)
		if class >= NumPeerMisbehaviors {
			t.Fatalf("undefined class %d", class)
		}
		if class != MisbehaviorNone {
			// Rejected: the scoreboard must not have been touched, and
			// the classification must be deterministic.
			if s.CumAck() != before {
				t.Fatalf("rejected ACK moved CumAck %d → %d", before, s.CumAck())
			}
			if again := v.Check(s, pkt, 16); again != class {
				t.Fatalf("verdict flapped: %v then %v", class, again)
			}
			return
		}
		// Accepted: apply and re-verify the invariants the protocols
		// rely on. CumAck may only advance, never regress, and never
		// past the sent window.
		s.Update(pkt)
		v.Commit(s)
		checkFolds(t, v, s)
		if s.CumAck() < before {
			t.Fatalf("CumAck regressed %d → %d", before, s.CumAck())
		}
		if s.CumAck() > s.HighSent()+1 {
			t.Fatalf("CumAck %d passed HighSent %d", s.CumAck(), s.HighSent())
		}
	})
}

// checkFolds compares the validator's prefix fold with a from-zero XOR
// of SegNonce at every cumulative point in [0, HighSent+1].
func checkFolds(t *testing.T, v *AckValidator, s *Scoreboard) {
	t.Helper()
	var want uint64
	for k := int32(0); k <= s.HighSent()+1; k++ {
		if got := v.foldTo(k); got != want {
			t.Fatalf("foldTo(%d) = %#x with the fold at %d, from-zero fold %#x", k, got, v.foldedTo, want)
		}
		want ^= v.SegNonce(k)
	}
}
