package transport

import (
	"halfback/internal/netem"
	"halfback/internal/sim"
)

// receiver is the server-side endpoint of a Conn: it acknowledges every
// data packet with cumulative + selective state (the substrate's
// "Selective ACK" per §4.1) and records flow completion.
type receiver struct {
	conn *Conn

	got      []bool
	cumAck   int32
	maxSeq   int32 // highest segment received, for bounded SACK scans
	distinct int32
	total    int32 // all data packets received, including duplicates
	holeSeen bool

	// cumFold is the XOR fold of the nonces of segments [0, cumAck),
	// maintained as cumAck advances; sendAck extends it with the
	// advertised SACK ranges to form the receipt proof.
	cumFold uint64

	// Delayed-ACK state (Options.DelayedAcks): unacked counts data
	// packets received since the last ACK; ackTimer bounds the delay
	// and ackTrigger remembers which segment armed it.
	unacked    int
	ackTimer   sim.Timer
	ackTrigger int32
}

func newReceiver(c *Conn) *receiver {
	return &receiver{conn: c, got: make([]bool, c.numSegs)}
}

func (r *receiver) handlePacket(pkt *netem.Packet, now sim.Time) {
	c := r.conn
	if c.recvLogic != nil {
		c.recvLogic.OnReceiverPacket(c, pkt, now)
		return
	}
	switch pkt.Kind {
	case netem.KindSYN:
		// Reply (or re-reply, if the SYNACK was lost) with the
		// advertised window, echoing the answered SYN's send time.
		c.sendControl(netem.KindSYNACK, c.dst, c.src, func(p *netem.Packet) {
			p.Window, p.Echo = c.Opts.FlowWindow, pkt.Echo
		}, now)

	case netem.KindData:
		seq := pkt.Seq
		if seq < 0 || seq >= c.numSegs {
			return
		}
		// End-to-end integrity: a segment whose payload checksum does
		// not match the pseudorandom payload it claims to carry was
		// corrupted in flight. Discard without acknowledging — the
		// sender sees it as a loss and retransmits.
		if pkt.PayloadSum != PayloadSum(c.ID, seq, pkt.Size) {
			c.Stats.ChecksumDrops++
			return
		}
		if r.got[seq] {
			c.Stats.DupDataAtReceiver++
		} else {
			r.got[seq] = true
			c.Stats.PayloadSumRecv ^= pkt.PayloadSum
			if seq > r.maxSeq {
				r.maxSeq = seq
			}
			r.distinct++
			for r.cumAck < c.numSegs && r.got[r.cumAck] {
				r.cumFold ^= c.val.SegNonce(r.cumAck)
				r.cumAck++
			}
			if seq > r.cumAck {
				r.holeSeen = true
				c.Stats.LossSeen = true
			}
			if r.distinct == c.numSegs && !c.Stats.Completed {
				c.Stats.Completed = true
				c.Stats.ReceiverDone = now
			}
			if c.OnDeliver != nil {
				c.OnDeliver(pkt.Size-netem.DataHeaderBytes, now)
			}
		}
		r.total++
		if !c.Opts.DelayedAcks {
			r.sendAck(seq, now)
			break
		}
		// Delayed ACKs: every second packet, out-of-order arrivals
		// (which must be signalled immediately, RFC 5681 §4.2), or
		// the 40 ms timer, whichever first.
		r.unacked++
		outOfOrder := seq != r.cumAck-1 || r.holeSeen && r.cumAck <= r.maxSeq
		if r.unacked >= 2 || outOfOrder || r.distinct == c.numSegs {
			r.flushAck(seq, now)
			break
		}
		if !r.ackTimer.Pending() {
			r.ackTrigger = seq
			r.ackTimer = c.sched.AfterFunc(delayedAckTimeout, recvAckTimeout, r)
		}

	case netem.KindProbe:
		// Echo probe timing for PCP: one-way delay plus the probe's
		// index so the sender can reconstruct dispersion.
		ack := c.net.NewPacket()
		ack.Kind, ack.Flow = netem.KindProbeAck, c.ID
		ack.Src, ack.Dst = c.dst.Node.ID, c.src.Node.ID
		ack.Size, ack.Seq = netem.AckSize, pkt.Seq
		ack.Echo, ack.OWD = pkt.Echo, now.Sub(pkt.Echo)
		c.net.Inject(ack, now)
	}
}

// reap releases receiver-side state when the flow aborts: the
// delayed-ACK timer is cancelled and the pending-ACK count cleared, so
// a torn-down flow leaves no event in the scheduler. Completion via
// finish deliberately does not reap — a final delayed ACK in flight at
// completion is harmless, and recorded goldens include its events.
func (r *receiver) reap() {
	if rl := r.conn.recvLogic; rl != nil {
		rl.OnReceiverReap(r.conn)
	}
	r.ackTimer.Stop()
	r.unacked = 0
}

// recvAckTimeout flushes a delayed acknowledgement when the 40 ms bound
// expires before a second packet arrives.
func recvAckTimeout(t sim.Time, arg any) {
	r := arg.(*receiver)
	if r.unacked > 0 {
		r.flushAck(r.ackTrigger, t)
	}
}

// flushAck emits the pending delayed acknowledgement.
func (r *receiver) flushAck(seq int32, now sim.Time) {
	r.unacked = 0
	r.ackTimer.Stop()
	r.sendAck(seq, now)
}

// sendAck emits the selective acknowledgement triggered by segment seq.
func (r *receiver) sendAck(seq int32, now sim.Time) {
	c := r.conn
	ack := c.net.NewPacket()
	ack.Kind, ack.Flow = netem.KindAck, c.ID
	ack.Src, ack.Dst = c.dst.Node.ID, c.src.Node.ID
	ack.Size = netem.AckSize
	ack.CumAck, ack.AckedSeq, ack.RecvTotal = r.cumAck, seq, r.total
	ack.Echo = now
	r.fillSACK(ack, seq)
	// Receipt proof: fold the nonces of every claimed segment —
	// [0,cumAck) incrementally, plus each advertised range (always
	// strictly above cumAck, so nothing is folded twice).
	ack.Nonce = r.cumFold
	for i := 0; i < ack.NumSACK; i++ {
		ack.Nonce ^= c.val.foldRange(ack.SACK[i].Lo, ack.SACK[i].Hi)
	}
	c.net.Inject(ack, now)
}

// fillSACK populates up to MaxSACKBlocks ranges of received-but-not-
// cumulatively-acknowledged segments. The block containing the triggering
// segment goes first (most useful for loss inference), then blocks are
// reported bottom-up from the cumulative ACK point.
func (r *receiver) fillSACK(ack *netem.Packet, trigger int32) {
	if r.cumAck >= r.conn.numSegs {
		return
	}
	add := func(lo, hi int32) bool {
		if ack.NumSACK >= netem.MaxSACKBlocks {
			return false
		}
		for i := 0; i < ack.NumSACK; i++ {
			if ack.SACK[i].Lo == lo && ack.SACK[i].Hi == hi {
				return true
			}
		}
		ack.SACK[ack.NumSACK] = netem.SeqRange{Lo: lo, Hi: hi}
		ack.NumSACK++
		return true
	}
	if trigger >= r.cumAck && r.got[trigger] {
		lo, hi := trigger, trigger+1
		for lo > r.cumAck && r.got[lo-1] {
			lo--
		}
		for hi < r.conn.numSegs && r.got[hi] {
			hi++
		}
		add(lo, hi)
	}
	// Scan upward from the hole for further runs. The scan is bounded
	// by the highest segment actually received (nothing beyond it can
	// be in a run), which keeps ACK generation O(holes) for healthy
	// flows regardless of window size.
	limit := r.maxSeq + 1
	if limit > r.conn.numSegs {
		limit = r.conn.numSegs
	}
	for s := r.cumAck; s < limit && ack.NumSACK < netem.MaxSACKBlocks; {
		if !r.got[s] {
			s++
			continue
		}
		lo := s
		for s < limit && r.got[s] {
			s++
		}
		if !add(lo, s) {
			break
		}
	}
}
