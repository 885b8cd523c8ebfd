package netem

import (
	"fmt"

	"halfback/internal/sim"
)

// LinkStats accumulates per-link instrumentation used by the experiment
// harness: drops for loss accounting, busy time for utilization, and
// queue high-water marks for bufferbloat analysis.
type LinkStats struct {
	Enqueued     int64 // packets accepted into the queue
	Dropped      int64 // packets dropped at the queue (overflow)
	RandomLosses int64 // packets dropped by the random-loss process
	AQMDrops     int64 // packets dropped early by CoDel/RED
	Transmitted  int64 // packets fully serialized onto the wire
	BytesTx      int64 // bytes fully serialized onto the wire
	BusyTime     sim.Duration
	MaxQueueByte int // high-water mark of queued bytes

	// Adversity instrumentation (see Adversity); all zero unless the
	// link has a non-trivial adversity configuration installed.
	FlapDrops  int64 // packets dropped because the link was down
	Duplicated int64 // extra copies created by the duplication process
	Corrupted  int64 // packets whose payload checksum was damaged
	Reordered  int64 // packets given the adversity reorder delay
	Jittered   int64 // packets given extra jitter delay
}

// Link is a unidirectional channel from one node to another with a fixed
// rate, propagation delay, and an ingress drop-tail queue bounded in
// bytes. A bidirectional connection is two Links.
type Link struct {
	From, To  NodeID
	RateBps   int64        // line rate, bits per second
	Delay     sim.Duration // one-way propagation delay
	BufferCap int          // queue capacity in bytes (drop-tail); 0 means "effectively unbounded"

	// LossProb drops each packet independently with this probability
	// before it reaches the queue, modelling non-congestive loss
	// (wireless home links, lossy Internet paths). Zero disables it.
	LossProb float64

	// Discipline selects the queue-management algorithm (drop-tail by
	// default). Set before traffic flows.
	Discipline QueueDiscipline

	Stats LinkStats

	net      *Network
	fromName string
	toName   string
	// The transmit queue is a power-of-two ring: qHead indexes the
	// oldest packet, qLen counts occupancy, so dequeue is O(1) instead
	// of a copy-shift of the whole backlog.
	queue      []queuedPacket
	qHead      int
	qLen       int
	qMask      int
	queuedByte int
	busy       bool
	// txMemoSize/txMemoDur memoize the last TxTime computation (see
	// TxTime).
	txMemoSize int
	txMemoDur  sim.Duration

	// txPkt is the packet currently being serialized; the transmit-done
	// event carries only the link and picks the packet up from here.
	txPkt *Packet
	rng   *sim.Rand

	// The arrival ring holds in-flight propagation completions for
	// links whose delivery order is provably FIFO (no adversity):
	// arrivals on such a link complete in transmit order at strictly
	// increasing (at, seq), so only the head needs a real scheduler
	// event — the rest are claimed inline via Scheduler.TakeNext when
	// the head fires, one heap operation for a whole convoy. Each
	// arrival keeps the sequence number it reserved at schedule time, so
	// execution order is bit-identical to the one-event-per-packet
	// history.
	arrQ    []linkArrival
	arrHead int
	arrLen  int
	arrMask int

	codel codelState
	red   redState

	// Fault injection (see adversity.go). advRng is forked from the
	// network RNG only when SetAdversity installs a non-trivial config,
	// so unconfigured links draw exactly the same random sequence they
	// always did. downDepth counts overlapping flap windows currently
	// holding the link down.
	adv       Adversity
	advRng    *sim.Rand
	downDepth int
}

// Name renders the link's human-readable "from->to" label on demand.
func (l *Link) Name() string { return l.fromName + "->" + l.toName }

// reset puts the link in the state AddLink builds for cfg: queue,
// counters, discipline, adversity state and the TxTime memo cleared,
// and the loss stream forked afresh from the network RNG under the
// link's name. Packets still queued, being serialized or in the
// arrival ring go back to the network's free list; the rings keep their
// storage. (Packets propagating on the slow path are referenced only by
// scheduler events, which the scheduler's own reset drops.)
func (l *Link) reset(cfg LinkConfig) {
	if cfg.RateBps <= 0 {
		panic("netem: link rate must be positive")
	}
	n := l.net
	for l.qLen > 0 {
		n.releasePacket(l.qPop().pkt)
	}
	for l.arrLen > 0 {
		n.releasePacket(l.arrPop().pkt)
	}
	if l.txPkt != nil {
		n.releasePacket(l.txPkt)
	}
	*l = Link{
		From: l.From, To: l.To, fromName: l.fromName, toName: l.toName, net: n,
		RateBps: cfg.RateBps, Delay: cfg.Delay, BufferCap: cfg.BufferCap, LossProb: cfg.LossProb,
		queue: l.queue, qMask: l.qMask, arrQ: l.arrQ, arrMask: l.arrMask,
		rng: n.rng.ForkNamed(lossForkName(l.From, l.To)),
	}
}

// queuedPacket pairs a packet with its enqueue instant so disciplines
// can compute sojourn times.
type queuedPacket struct {
	pkt *Packet
	at  sim.Time
}

// linkArrival is one in-flight packet on a FIFO link: its delivery time
// and the tiebreak sequence reserved when propagation began.
type linkArrival struct {
	pkt *Packet
	at  sim.Time
	seq uint64
}

// TxTime returns how long serializing size bytes onto this link takes.
func (l *Link) TxTime(size int) sim.Duration {
	// One-entry memo: a link carries at most a handful of distinct
	// packet sizes (full segments one way, ACKs the other), so the
	// 64-bit division is almost always skippable. The cached value is
	// the exact quotient, so results are bit-identical.
	if size == l.txMemoSize && l.txMemoDur != 0 {
		return l.txMemoDur
	}
	d := sim.Duration(int64(size) * 8 * int64(sim.Second) / l.RateBps)
	l.txMemoSize, l.txMemoDur = size, d
	return d
}

// QueuedBytes returns the bytes currently waiting in the link's queue
// (not counting the packet being serialized).
func (l *Link) QueuedBytes() int { return l.queuedByte }

// qPush appends to the transmit ring, growing it in place (unwrapped)
// when full.
func (l *Link) qPush(q queuedPacket) {
	if l.qLen == len(l.queue) {
		n := len(l.queue) * 2
		if n == 0 {
			n = 16
		}
		grown := make([]queuedPacket, n)
		for i := 0; i < l.qLen; i++ {
			grown[i] = l.queue[(l.qHead+i)&l.qMask]
		}
		l.queue = grown
		l.qHead = 0
		l.qMask = n - 1
	}
	l.queue[(l.qHead+l.qLen)&l.qMask] = q
	l.qLen++
}

// qPop removes and returns the oldest queued packet.
func (l *Link) qPop() queuedPacket {
	q := l.queue[l.qHead]
	l.queue[l.qHead] = queuedPacket{}
	l.qHead = (l.qHead + 1) & l.qMask
	l.qLen--
	return q
}

// Send offers a packet to the link. It applies random loss, then the
// drop-tail queue admission check, then begins transmission if the line is
// idle. Send reports whether the packet was accepted.
func (l *Link) Send(pkt *Packet, now sim.Time) bool {
	if l.downDepth > 0 {
		l.Stats.FlapDrops++
		l.net.dropPacket(pkt, now)
		return false
	}
	if l.LossProb > 0 && l.rng.Bool(l.LossProb) {
		l.Stats.RandomLosses++
		l.net.dropPacket(pkt, now)
		return false
	}
	if l.BufferCap > 0 && l.queuedByte+pkt.Size > l.BufferCap {
		l.Stats.Dropped++
		l.net.dropPacket(pkt, now)
		return false
	}
	if l.Discipline == RED {
		if l.red.onEnqueue(l.queuedByte, l.BufferCap, l.rng) {
			l.Stats.AQMDrops++
			l.net.dropPacket(pkt, now)
			return false
		}
	}
	l.Stats.Enqueued++
	l.qPush(queuedPacket{pkt: pkt, at: now})
	l.queuedByte += pkt.Size
	if l.queuedByte > l.Stats.MaxQueueByte {
		l.Stats.MaxQueueByte = l.queuedByte
	}
	if !l.busy {
		l.startTransmit(now)
	}
	return true
}

func (l *Link) startTransmit(now sim.Time) {
	var pkt *Packet
	for pkt == nil {
		if l.qLen == 0 {
			l.busy = false
			return
		}
		head := l.qPop()
		l.queuedByte -= head.pkt.Size

		if l.Discipline == CoDel {
			if l.codel.onDequeue(now.Sub(head.at), now) {
				l.Stats.AQMDrops++
				l.net.dropPacket(head.pkt, now)
				continue // try the next head
			}
		}
		pkt = head.pkt
	}

	l.busy = true
	l.txPkt = pkt
	pkt.SentAt = now
	tx := l.TxTime(pkt.Size)
	l.Stats.BusyTime += tx
	l.net.sched.AfterFunc(tx, linkTxDone, l)
}

// linkTxDone fires when the head packet's last bit hits the wire: start
// propagation (the packet itself carries the link for the arrival
// event), free the line and, if the queue is non-empty, begin the next
// serialization. Closure-free so the per-packet event loop does not
// allocate.
func linkTxDone(t sim.Time, arg any) {
	l := arg.(*Link)
	pkt := l.txPkt
	l.txPkt = nil
	l.Stats.Transmitted++
	l.Stats.BytesTx += int64(pkt.Size)
	// Adversity duplication happens at serialization end — the wire
	// carried the frame once, but the far end will see it twice (a
	// link-layer retransmission whose ACK was lost). The clone is drawn
	// from the pool and both copies take independent propagation draws.
	if l.advRng != nil && l.adv.DupProb > 0 && l.advRng.Bool(l.adv.DupProb) {
		cp := l.net.clonePacket(pkt)
		l.Stats.Duplicated++
		l.net.DuplicatedTotal++
		l.propagate(pkt)
		l.propagate(cp)
	} else {
		l.propagate(pkt)
	}
	if l.qLen > 0 {
		l.startTransmit(t)
	} else {
		l.busy = false
	}
}

// propagate schedules a packet's arrival at the far end of the wire:
// base propagation delay, plus — only when adversity is installed —
// jitter, reordering and checksum corruption drawn in a fixed order from
// the dedicated adversity stream.
func (l *Link) propagate(pkt *Packet) {
	prop := l.Delay
	if r := l.advRng; r != nil {
		a := &l.adv
		if a.JitterProb > 0 && r.Bool(a.JitterProb) {
			max := a.JitterMax
			if max <= 0 {
				max = l.TxTime(SegmentSize)
			}
			l.Stats.Jittered++
			prop += sim.Duration(r.Int63n(int64(max))) + 1
		}
		if a.ReorderProb > 0 && r.Bool(a.ReorderProb) {
			extra := a.ReorderDelay
			if extra <= 0 {
				extra = 2 * l.TxTime(SegmentSize)
			}
			l.Stats.Reordered++
			prop += extra
		}
		if a.CorruptProb > 0 && r.Bool(a.CorruptProb) {
			l.Stats.Corrupted++
			pkt.Corrupted = true
			pkt.PayloadSum ^= 1 << uint(r.Intn(64))
		}
	}
	sched := l.net.sched
	if l.advRng == nil {
		// FIFO fast path: propagation delay is constant and transmit
		// completions come in serialization order, so arrivals are
		// strictly ordered — ring-buffer them, reserve each one's
		// tiebreak sequence now (keeping the global order identical to
		// scheduling a real event), and materialize an event for the
		// head only.
		at := sched.Now().Add(prop)
		seq := sched.ReserveSeq()
		if l.arrLen == 0 {
			sched.AtFuncSeq(at, seq, linkArriveHead, l)
		}
		l.arrPush(linkArrival{pkt: pkt, at: at, seq: seq})
		return
	}
	pkt.link = l
	sched.AfterFunc(prop, linkPropagated, pkt)
}

// arrPush appends to the arrival ring, growing it in place (unwrapped)
// when full.
func (l *Link) arrPush(a linkArrival) {
	if l.arrLen == len(l.arrQ) {
		n := len(l.arrQ) * 2
		if n == 0 {
			n = 16
		}
		grown := make([]linkArrival, n)
		for i := 0; i < l.arrLen; i++ {
			grown[i] = l.arrQ[(l.arrHead+i)&l.arrMask]
		}
		l.arrQ = grown
		l.arrHead = 0
		l.arrMask = n - 1
	}
	l.arrQ[(l.arrHead+l.arrLen)&l.arrMask] = a
	l.arrLen++
}

// arrPop removes and returns the head arrival.
func (l *Link) arrPop() linkArrival {
	a := l.arrQ[l.arrHead]
	l.arrQ[l.arrHead] = linkArrival{}
	l.arrHead = (l.arrHead + 1) & l.arrMask
	l.arrLen--
	return a
}

// linkArriveHead fires for the head of a link's arrival ring, delivers
// it, then drains every following arrival the scheduler lets it claim
// inline: each one whose (at, seq) still precedes everything queued in
// the scheduler executes without ever having been a heap entry. The
// first arrival that cannot be claimed (a timer sneaks in between, the
// run window's bound passes, or Stop was called) becomes the ring's new
// scheduled head, under the sequence it reserved at propagation time.
func linkArriveHead(now sim.Time, arg any) {
	l := arg.(*Link)
	a := l.arrPop()
	l.net.deliver(l.To, a.pkt, now)
	sched := l.net.sched
	for l.arrLen > 0 {
		a = l.arrQ[l.arrHead]
		if !sched.TakeNext(a.at, a.seq) {
			sched.AtFuncSeq(a.at, a.seq, linkArriveHead, l)
			return
		}
		l.arrPop()
		l.net.deliver(l.To, a.pkt, a.at)
	}
}

// linkPropagated fires when a packet reaches the far end of its wire on
// the slow (adversity) path.
func linkPropagated(arrival sim.Time, arg any) {
	pkt := arg.(*Packet)
	l := pkt.link
	pkt.link = nil
	l.net.deliver(l.To, pkt, arrival)
}

// Utilization returns the fraction of the window [start,end] the link
// spent serializing bits. Callers snapshot BusyTime at start themselves
// for windowed measurement; this helper covers the whole run.
func (l *Link) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.Stats.BusyTime) / float64(elapsed)
}

func (l *Link) String() string {
	return fmt.Sprintf("link(%s %d->%d %dbps %v buf=%dB)", l.Name(), l.From, l.To, l.RateBps, l.Delay, l.BufferCap)
}
