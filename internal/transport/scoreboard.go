package transport

import "halfback/internal/netem"

// Scoreboard is the sender's view of which segments the receiver holds,
// maintained from cumulative + selective acknowledgements, in the spirit
// of RFC 6675. Sequence numbers are segment indices [0, N).
//
// Loss inference and pipe estimation are O(window) with an internal
// prefix-sum cache over the SACK bitmap, so the scoreboard stays cheap
// even for multi-megabyte windows (long background flows).
type Scoreboard struct {
	n         int32
	cumAck    int32 // lowest segment not cumulatively acked
	sacked    []bool
	sackedCnt int32 // sacked segments at or above cumAck
	retx      []uint8
	retxAbove int32 // total retransmission copies of segments ≥ cumAck
	sentOnce  []bool
	lostMark  []bool // presumed lost after an RTO (RFC 5681 semantics)
	markCnt   int32  // live lostMark entries, for O(1) fast paths
	highSent  int32  // highest segment ever sent; -1 before any send

	// prefix[i] counts sacked segments in [cumAck, cumAck+i); valid
	// only when prefixOK, invalidated by any state change.
	prefix   []int32
	prefixOK bool
}

// NewScoreboard returns a scoreboard for a flow of n segments.
func NewScoreboard(n int32) *Scoreboard {
	return &Scoreboard{
		n:        n,
		sacked:   make([]bool, n),
		retx:     make([]uint8, n),
		sentOnce: make([]bool, n),
		lostMark: make([]bool, n),
		highSent: -1,
	}
}

// N returns the number of segments in the flow.
func (s *Scoreboard) N() int32 { return s.n }

// CumAck returns the lowest segment index not yet cumulatively
// acknowledged; CumAck == N means the whole flow is acknowledged.
func (s *Scoreboard) CumAck() int32 { return s.cumAck }

// HighSent returns the highest segment index ever sent, or -1.
func (s *Scoreboard) HighSent() int32 { return s.highSent }

// AllAcked reports whether every segment is cumulatively acknowledged.
func (s *Scoreboard) AllAcked() bool { return s.cumAck >= s.n }

// IsAcked reports whether the receiver is known to hold seq (cumulative
// or selective).
func (s *Scoreboard) IsAcked(seq int32) bool {
	return seq < s.cumAck || (seq < s.n && s.sacked[seq])
}

// SackedAboveCum returns the number of selectively acknowledged segments
// at or above the cumulative-ACK point.
func (s *Scoreboard) SackedAboveCum() int32 { return s.sackedCnt }

// RetxCount returns how many times seq has been retransmitted.
func (s *Scoreboard) RetxCount(seq int32) int { return int(s.retx[seq]) }

// SentOnce reports whether seq has been transmitted at least once.
func (s *Scoreboard) SentOnce(seq int32) bool { return seq < s.n && s.sentOnce[seq] }

// NoteSend records a transmission of seq; retransmit marks copies after
// the first.
func (s *Scoreboard) NoteSend(seq int32, retransmit bool) {
	if seq > s.highSent {
		s.highSent = seq
		s.prefixOK = false // cache spans [cumAck, highSent]
	}
	if retransmit {
		if s.retx[seq] < 255 {
			s.retx[seq]++
			if seq >= s.cumAck {
				s.retxAbove++
			}
		}
	} else {
		s.sentOnce[seq] = true
	}
}

// AckUpdate summarises what an incoming ACK changed.
type AckUpdate struct {
	// NewCumAcked is how many segments the cumulative ACK point
	// advanced by.
	NewCumAcked int32
	// NewSacked is how many segments became selectively acknowledged.
	NewSacked int32
	// Duplicate reports an ACK that advanced nothing (classic dupack).
	Duplicate bool
}

// Update folds an incoming ACK into the scoreboard.
func (s *Scoreboard) Update(pkt *netem.Packet) AckUpdate {
	var up AckUpdate
	if end := min(pkt.CumAck, s.n); end > s.cumAck {
		// Clamp before computing the delta: an ACK claiming beyond the
		// end of the flow (corrupt, or crafted) must not report phantom
		// progress — once cumAck sits at n, replaying it is a duplicate.
		up.NewCumAcked = end - s.cumAck
		for seq := s.cumAck; seq < end; seq++ {
			if s.sacked[seq] {
				s.sackedCnt--
			}
			if s.lostMark[seq] {
				s.lostMark[seq] = false
				s.markCnt--
			}
			s.retxAbove -= int32(s.retx[seq])
		}
		s.cumAck = end
		if s.retxAbove < 0 {
			s.retxAbove = 0
		}
		s.prefixOK = false
	}
	for i := 0; i < pkt.NumSACK; i++ {
		r := pkt.SACK[i]
		// A well-behaved receiver can only acknowledge data that was
		// sent; clamp to highSent so a corrupt or adversarial ACK
		// cannot poison the pipe accounting.
		hi := min(r.Hi, s.highSent+1)
		for seq := max(r.Lo, s.cumAck); seq < hi && seq < s.n; seq++ {
			if !s.sacked[seq] {
				s.sacked[seq] = true
				s.sackedCnt++
				up.NewSacked++
				s.prefixOK = false
				if s.lostMark[seq] {
					s.lostMark[seq] = false
					s.markCnt--
				}
			}
		}
	}
	up.Duplicate = up.NewCumAcked == 0 && up.NewSacked == 0
	return up
}

// refreshPrefix rebuilds the sacked prefix-sum cache over
// [cumAck, highSent].
func (s *Scoreboard) refreshPrefix() {
	w := int(s.highSent - s.cumAck + 2)
	if w < 1 {
		w = 1
	}
	if cap(s.prefix) < w {
		s.prefix = make([]int32, w)
	}
	s.prefix = s.prefix[:w]
	s.prefix[0] = 0
	for i := 1; i < w; i++ {
		seq := s.cumAck + int32(i) - 1
		v := s.prefix[i-1]
		if seq < s.n && s.sacked[seq] {
			v++
		}
		s.prefix[i] = v
	}
	s.prefixOK = true
}

// sackedAbove returns the number of sacked segments strictly above seq,
// up to highSent.
func (s *Scoreboard) sackedAbove(seq int32) int32 {
	if s.sackedCnt == 0 || seq >= s.highSent {
		return 0
	}
	if seq < s.cumAck {
		seq = s.cumAck - 1
	}
	if !s.prefixOK {
		s.refreshPrefix()
	}
	total := s.prefix[len(s.prefix)-1]
	return total - s.prefix[seq+1-s.cumAck]
}

// DeemedLost reports whether seq should be inferred lost: it was sent, is
// unacknowledged, and either at least dupThresh segments above it have
// been selectively acknowledged (the SACK analogue of three duplicate
// ACKs) or a timeout has presumed it lost.
func (s *Scoreboard) DeemedLost(seq int32, dupThresh int) bool {
	if seq >= s.n || seq < s.cumAck || s.sacked[seq] || !s.sentOnce[seq] {
		return false
	}
	return s.lostMark[seq] || s.sackedAbove(seq) >= int32(dupThresh)
}

// MarkOutstandingLost implements the RFC 5681 timeout presumption: every
// sent, unacknowledged segment is considered lost, so the pipe estimate
// empties and slow-start retransmission can proceed. Senders call it
// when the retransmission timer fires.
func (s *Scoreboard) MarkOutstandingLost() {
	for seq := s.cumAck; seq <= s.highSent && seq < s.n; seq++ {
		if !s.sacked[seq] && s.sentOnce[seq] && !s.lostMark[seq] {
			s.lostMark[seq] = true
			s.markCnt++
		}
	}
}

// IsMarkedLost reports whether seq carries the timeout presumption.
func (s *Scoreboard) IsMarkedLost(seq int32) bool {
	return seq >= 0 && seq < s.n && s.lostMark[seq]
}

// NextLost returns the lowest segment ≥ from that is deemed lost and has
// been retransmitted fewer than maxRetx times, or -1.
func (s *Scoreboard) NextLost(from int32, dupThresh, maxRetx int) int32 {
	if from < s.cumAck {
		from = s.cumAck
	}
	// The per-segment retransmission counter saturates at 255; a budget
	// beyond that would match a saturated segment forever and spin the
	// callers' send loops.
	if maxRetx > 255 {
		maxRetx = 255
	}
	for seq := from; seq <= s.highSent && seq < s.n; seq++ {
		if s.sacked[seq] {
			continue
		}
		if int(s.retx[seq]) < maxRetx && s.DeemedLost(seq, dupThresh) {
			return seq
		}
		// Once the sacked count above seq falls below the threshold,
		// only timeout-marked segments can still qualify; if none
		// remain either, stop scanning.
		if s.sackedAbove(seq) < int32(dupThresh) && !s.anyMarkAbove(seq) {
			return -1
		}
	}
	return -1
}

// anyMarkAbove reports whether any segment at or above seq carries the
// timeout-loss presumption.
func (s *Scoreboard) anyMarkAbove(seq int32) bool {
	if s.markCnt == 0 {
		return false
	}
	for i := max(seq, s.cumAck); i <= s.highSent && i < s.n; i++ {
		if s.lostMark[i] && !s.sacked[i] {
			return true
		}
	}
	return false
}

// Holes returns every unacknowledged, sent segment in [cumAck, highSent],
// i.e. the candidates for retransmission. The slice is freshly allocated.
func (s *Scoreboard) Holes() []int32 {
	var holes []int32
	for seq := s.cumAck; seq <= s.highSent && seq < s.n; seq++ {
		if !s.sacked[seq] && s.sentOnce[seq] {
			holes = append(holes, seq)
		}
	}
	return holes
}

// Pipe estimates the number of segments in flight per RFC 6675: every
// sent, unacknowledged segment not yet deemed lost counts once, and every
// retransmission counts once more.
func (s *Scoreboard) Pipe(dupThresh int) int32 {
	if s.highSent < s.cumAck {
		return 0
	}
	outstanding := s.highSent - s.cumAck + 1 - s.sackedCnt
	// Subtract segments deemed lost (their original copy has left the
	// network), whether SACK-inferred or timeout-presumed.
	for seq := s.cumAck; seq <= s.highSent && seq < s.n; seq++ {
		if s.sacked[seq] {
			continue
		}
		if s.DeemedLost(seq, dupThresh) {
			outstanding--
			continue
		}
		if s.sackedAbove(seq) < int32(dupThresh) && !s.anyMarkAbove(seq) {
			break
		}
	}
	return outstanding + s.retxAbove
}

// HighestUnacked returns the highest sent segment index that the receiver
// is not known to hold, or -1 if none.
func (s *Scoreboard) HighestUnacked() int32 {
	for seq := min(s.highSent, s.n-1); seq >= s.cumAck; seq-- {
		if !s.sacked[seq] {
			return seq
		}
	}
	return -1
}
