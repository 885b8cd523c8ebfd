package transport

import (
	"encoding/binary"
	"testing"

	"halfback/internal/netem"
)

// FuzzScoreboardSACKPermutation is the normalization audit for SACK
// application: the scoreboard treats SACK blocks as a set union, so
// any permutation, duplication, or re-splitting of the honest blocks
// an ACK carries must produce an identical scoreboard. The fuzzer
// picks an honest receiver state (a subset of received segments), and
// the test derives the maximal SACK runs, then applies them in fuzzed
// order with fuzzed duplication — in one ACK and split across several
// — and demands identical observable state every way.
func FuzzScoreboardSACKPermutation(f *testing.F) {
	f.Add([]byte{0xa5, 0x0f, 3, 1}, uint16(0x35aa))
	f.Add([]byte{0xff, 0x00, 0xff, 7, 9}, uint16(0x1234))
	f.Fuzz(func(t *testing.T, gotBits []byte, shuffle uint16) {
		const n = 32
		// Honest receiver state: got[i] from the fuzzed bitmap, with
		// segment 0 missing so the cumulative point stays at 0 and
		// every run is a SACK block.
		var got [n]bool
		for i := 1; i < n; i++ {
			got[i] = len(gotBits) > 0 && gotBits[(i-1)%len(gotBits)]&(1<<uint((i-1)%8)) != 0
		}
		// Maximal runs, bottom-up — what receiver.fillSACK reports.
		var blocks []netem.SeqRange
		for s := 1; s < n; {
			if !got[s] {
				s++
				continue
			}
			lo := s
			for s < n && got[s] {
				s++
			}
			blocks = append(blocks, netem.SeqRange{Lo: int32(lo), Hi: int32(s)})
		}
		if len(blocks) == 0 {
			return
		}

		fresh := func() *Scoreboard {
			s := NewScoreboard(n)
			for seq := int32(0); seq < n; seq++ {
				s.NoteSend(seq, false)
			}
			return s
		}
		apply := func(s *Scoreboard, order []netem.SeqRange) {
			// Deliver the blocks MaxSACKBlocks at a time, as a real ACK
			// stream would, duplicating the block the shuffle selects.
			for i := 0; i < len(order); i += netem.MaxSACKBlocks {
				pkt := &netem.Packet{Kind: netem.KindAck, AckedSeq: -1}
				for j := i; j < len(order) && pkt.NumSACK < netem.MaxSACKBlocks; j++ {
					pkt.SACK[pkt.NumSACK] = order[j]
					pkt.NumSACK++
				}
				dup := int(shuffle>>8) % (pkt.NumSACK + 1)
				if dup < pkt.NumSACK && pkt.NumSACK < netem.MaxSACKBlocks {
					pkt.SACK[pkt.NumSACK] = pkt.SACK[dup]
					pkt.NumSACK++
				}
				s.Update(pkt)
			}
		}
		observe := func(s *Scoreboard) [n + 2]int32 {
			var o [n + 2]int32
			o[0] = s.CumAck()
			o[1] = s.SackedAboveCum()
			for seq := int32(0); seq < n; seq++ {
				if s.IsAcked(seq) {
					o[2+seq] = 1
				}
			}
			return o
		}

		base := fresh()
		apply(base, blocks)
		want := observe(base)

		// Fisher-Yates permutation driven by the fuzzed shuffle word.
		perm := append([]netem.SeqRange(nil), blocks...)
		state := uint32(shuffle) | 1
		for i := len(perm) - 1; i > 0; i-- {
			state = state*1664525 + 1013904223
			j := int(state>>16) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		permuted := fresh()
		apply(permuted, perm)
		if got := observe(permuted); got != want {
			t.Fatalf("permuted SACK order diverged:\nblocks %v\nperm   %v\n got %v\nwant %v",
				blocks, perm, got, want)
		}

		// Duplication of the whole stream: applying every block twice
		// must also be a no-op the second time.
		doubled := fresh()
		apply(doubled, append(append([]netem.SeqRange(nil), perm...), blocks...))
		if got := observe(doubled); got != want {
			t.Fatalf("duplicated SACK stream diverged:\n got %v\nwant %v", got, want)
		}
	})
}

// FuzzScoreboard drives the SACK scoreboard with a fuzzer-chosen
// interleaving of sends and adversarial ACKs. Sends follow the caller
// contract (sequence numbers in range — the connection only sends its
// own segments) but ACK packets carry arbitrary attacker-controlled
// fields, exactly what a hostile or corrupted network can deliver.
// After every operation the structural invariants must hold, a
// replayed ACK must change nothing, and DeemedLost, NextLost and Pipe —
// which read the prefix-sum cache and stop scanning early — must equal
// a naive recount over the scoreboard's bitmaps (naiveLost).
func FuzzScoreboard(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2})
	// Eight sends, then two SACK-only ACKs ({2}, then {4,5}) that leave
	// the cumulative point at 0: the second must refresh the prefix sums.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3,
		2, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 32
		s := NewScoreboard(n)
		next := func(k int) []byte {
			if len(data) < k {
				pad := make([]byte, k)
				copy(pad, data)
				data = nil
				return pad
			}
			b := data[:k]
			data = data[k:]
			return b
		}
		i32 := func() int32 { return int32(binary.BigEndian.Uint32(next(4))) }
		for len(data) > 0 {
			op := next(1)[0]
			switch op % 4 {
			case 0: // in-order send
				if hs := s.HighSent(); hs+1 < n {
					s.NoteSend(hs+1, false)
				}
			case 1: // retransmission of an arbitrary in-range segment
				s.NoteSend(int32(op/4)%n, true)
			case 2: // adversarial ACK: every field attacker-controlled
				pkt := &netem.Packet{Kind: netem.KindAck, CumAck: i32(), AckedSeq: -1}
				nb := int(next(1)[0]) % (netem.MaxSACKBlocks + 1)
				for b := 0; b < nb; b++ {
					pkt.SACK[pkt.NumSACK] = netem.SeqRange{Lo: i32(), Hi: i32()}
					pkt.NumSACK++
				}
				s.Update(pkt)
				up := s.Update(pkt) // replay must be a pure no-op
				if !up.Duplicate {
					t.Fatal("replayed ACK was not reported as duplicate")
				}
			case 3: // loss marking plus the full query surface
				s.MarkOutstandingLost()
				s.NextLost(s.CumAck(), 3, 2)
				s.Holes()
				s.HighestUnacked()
			}
			if s.CumAck() < 0 || s.CumAck() > n {
				t.Fatalf("CumAck %d outside [0,%d]", s.CumAck(), n)
			}
			if s.HighSent() < -1 || s.HighSent() >= n {
				t.Fatalf("HighSent %d outside [-1,%d)", s.HighSent(), n)
			}
			if s.SackedAboveCum() < 0 || s.SackedAboveCum() > n-s.CumAck() {
				t.Fatalf("SackedAboveCum %d impossible with CumAck %d", s.SackedAboveCum(), s.CumAck())
			}
			if p := s.Pipe(3); p < 0 {
				t.Fatalf("negative pipe %d", p)
			}
			for seq := int32(0); seq < s.CumAck(); seq++ {
				if !s.IsAcked(seq) {
					t.Fatalf("seq %d below CumAck %d not acked", seq, s.CumAck())
				}
			}
			for _, dupThresh := range []int{1, 3} {
				lost := naiveLost(s, dupThresh)
				for seq := int32(-1); seq <= n; seq++ {
					want := seq >= 0 && seq < n && lost[seq]
					if got := s.DeemedLost(seq, dupThresh); got != want {
						t.Fatalf("DeemedLost(%d, %d) = %v, recount says %v", seq, dupThresh, got, want)
					}
					for _, maxRetx := range []int{1, 2, 300} {
						want := int32(-1)
						for i := max(seq, s.cumAck); i <= s.highSent; i++ {
							if lost[i] && int(s.retx[i]) < min(maxRetx, 255) {
								want = i
								break
							}
						}
						if got := s.NextLost(seq, dupThresh, maxRetx); got != want {
							t.Fatalf("NextLost(%d, %d, %d) = %d, recount says %d", seq, dupThresh, maxRetx, got, want)
						}
					}
				}
				// Pipe: every segment in [cumAck, highSent] neither acked
				// nor deemed lost, plus every retransmission at or above
				// cumAck.
				var pipe int32
				for i := s.cumAck; i < n; i++ {
					if i <= s.highSent && !s.sacked[i] && !lost[i] {
						pipe++
					}
					pipe += int32(s.retx[i])
				}
				if got := s.Pipe(dupThresh); got != pipe {
					t.Fatalf("Pipe(%d) = %d, recount says %d", dupThresh, got, pipe)
				}
			}
		}
	})
}

// naiveLost recounts, from the scoreboard's bitmaps alone, which
// segments DeemedLost should report: sent, unacknowledged, at or above
// cumAck, and either timeout-marked or with at least dupThresh SACKed
// segments above them up to highSent. It uses neither the prefix-sum
// cache nor the incremental counters.
func naiveLost(s *Scoreboard, dupThresh int) []bool {
	lost := make([]bool, s.n)
	for seq := s.cumAck; seq <= s.highSent; seq++ {
		if s.sacked[seq] || !s.sentOnce[seq] {
			continue
		}
		above := 0
		for i := seq + 1; i <= s.highSent; i++ {
			if s.sacked[i] {
				above++
			}
		}
		lost[seq] = s.lostMark[seq] || above >= dupThresh
	}
	return lost
}
