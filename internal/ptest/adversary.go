package ptest

import (
	"fmt"
	"slices"
	"strings"

	"halfback/internal/netem"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// Adversarial receivers: Byzantine peers for the misbehaving-endpoint
// hardening layer (transport/validate.go). Each attacker implements
// transport.ReceiverLogic, replacing the honest receiver endpoint of a
// Conn while completing the handshake and echoing PCP probes honestly
// (a peer that never handshakes is just a dead host — the interesting
// adversary wants the flow up so it can lie about it). Run with an
// attacker pits one scheme against it, and Result.AttackErr checks the
// bounded-waste verdicts: how much the sender transmitted, whether it
// terminated, how, and whether it was ever fooled into believing a
// false completion.

// Attacker presets.
const (
	// AttackOptimist claims the entire flow on every data packet
	// (optimistic ACKing, Savage et al.): against a trusting sender it
	// forces instant false completion.
	AttackOptimist = "optimist"
	// AttackDivider emits many ACKs per data packet with an inflated
	// receive count (segment-granularity ACK division/inflation),
	// trying to accelerate ack-clocked windows.
	AttackDivider = "divider"
	// AttackSackLiar acknowledges honestly but fabricates a SACK range
	// just above the highest segment it received, poisoning the
	// scoreboard so a trusting sender suppresses retransmissions.
	AttackSackLiar = "sackliar"
	// AttackDupFlood acknowledges honestly but repeats every ACK many
	// times, amplifying the sender's ACK processing and dup-ACK
	// triggered retransmission machinery.
	AttackDupFlood = "dupflood"
	// AttackWithholder acknowledges the first few segments honestly
	// and then goes silent — indistinguishable on the wire from a dead
	// network, so the defense is the retransmission budget, not the
	// validator.
	AttackWithholder = "withholder"
)

// AttackerNames lists every attacker preset in deterministic order.
func AttackerNames() []string {
	return []string{AttackOptimist, AttackDivider, AttackSackLiar, AttackDupFlood, AttackWithholder}
}

// CheckAttacker validates a -misbehave flag value: "none" or one of
// AttackerNames.
func CheckAttacker(name string) error {
	if name != "none" && !slices.Contains(AttackerNames(), name) {
		return fmt.Errorf("bad -misbehave %q (want none|%s)", name, strings.Join(AttackerNames(), "|"))
	}
	return nil
}

// dupFloodCopies is how many duplicate copies AttackDupFlood emits per
// honest ACK, and withholdAfter how many data packets AttackWithholder
// acknowledges before going silent.
const (
	dupFloodCopies = 32
	dividerCopies  = 8
	withholdAfter  = 8
)

// AttackHost is the adversarial receiver endpoint: it tracks what was
// genuinely received (so results can distinguish honest completion
// from a false one, and so attackers can echo real nonces where that
// serves the lie) and delegates ACK generation to the attacker preset.
type AttackHost struct {
	conn   *transport.Conn
	attack string

	got     []bool
	nonces  []uint64
	cum     int32
	cumFold uint64
	maxSeq  int32

	// Distinct and Total mirror the honest receiver's accounting:
	// unique segments held, and all data arrivals including dups.
	Distinct int32
	Total    int32
}

// Attach installs the named attacker on conn (before Start). It panics
// on an unknown name, mirroring scheme.MustNew.
func Attach(conn *transport.Conn, attack string) *AttackHost {
	if !slices.Contains(AttackerNames(), attack) {
		panic(fmt.Sprintf("ptest: unknown attacker %q (have %s)",
			attack, strings.Join(AttackerNames(), ", ")))
	}
	h := &AttackHost{
		conn: conn, attack: attack,
		got:    make([]bool, conn.NumSegs()),
		nonces: make([]uint64, conn.NumSegs()),
		maxSeq: -1,
	}
	conn.SetReceiverLogic(h)
	return h
}

// OnReceiverPacket implements transport.ReceiverLogic.
func (h *AttackHost) OnReceiverPacket(c *transport.Conn, pkt *netem.Packet, now sim.Time) {
	switch pkt.Kind {
	case netem.KindSYN:
		c.EmitFromReceiver(func(p *netem.Packet) {
			p.Kind = netem.KindSYNACK
			p.Size = netem.ControlSize
			p.Window = c.Opts.FlowWindow
		}, now)

	case netem.KindProbe:
		// PCP probes are echoed honestly: stalling the probe phase
		// would only keep the flow from ever carrying data to lie
		// about.
		c.EmitFromReceiver(func(p *netem.Packet) {
			p.Kind = netem.KindProbeAck
			p.Seq = pkt.Seq
			p.Echo, p.OWD = pkt.Echo, now.Sub(pkt.Echo)
		}, now)

	case netem.KindData:
		h.track(pkt)
		h.onData(pkt, now)
	}
}

// OnReceiverReap implements transport.ReceiverLogic; the attackers are
// purely reactive (no timers), so there is nothing to cancel.
func (h *AttackHost) OnReceiverReap(c *transport.Conn) {}

// track records a genuine arrival, maintaining the honest view the
// attackers selectively distort.
func (h *AttackHost) track(pkt *netem.Packet) {
	seq := pkt.Seq
	if seq < 0 || seq >= h.conn.NumSegs() {
		return
	}
	h.Total++
	if h.got[seq] {
		return
	}
	h.got[seq] = true
	h.nonces[seq] = pkt.Nonce
	h.Distinct++
	if seq > h.maxSeq {
		h.maxSeq = seq
	}
	for h.cum < h.conn.NumSegs() && h.got[h.cum] {
		h.cumFold ^= h.nonces[h.cum]
		h.cum++
	}
}

// onData dispatches to the attacker behaviour.
func (h *AttackHost) onData(pkt *netem.Packet, now sim.Time) {
	switch h.attack {
	case AttackOptimist:
		// Claim everything, echoing the fold of what was actually
		// received — the best forgery available without the missing
		// segments' nonces.
		guess := h.cumFold
		for seq := h.cum; seq <= h.maxSeq; seq++ {
			if seq >= 0 && h.got[seq] {
				guess ^= h.nonces[seq]
			}
		}
		h.emit(func(p *netem.Packet) {
			p.CumAck = h.conn.NumSegs()
			p.AckedSeq = pkt.Seq
			p.RecvTotal = h.conn.NumSegs()
			p.Nonce = guess
		}, now)

	case AttackDivider:
		for i := 0; i < dividerCopies; i++ {
			h.emitHonest(pkt.Seq, func(p *netem.Packet) {
				p.RecvTotal = h.Total * dividerCopies
			}, now)
		}

	case AttackSackLiar:
		h.emitHonest(pkt.Seq, func(p *netem.Packet) {
			// Fabricate a block just above everything received; the
			// segments may be in flight (nonce unknown) or unsent.
			lo := h.maxSeq + 2
			if lo <= p.CumAck {
				lo = p.CumAck + 1
			}
			if p.NumSACK < netem.MaxSACKBlocks {
				p.SACK[p.NumSACK] = netem.SeqRange{Lo: lo, Hi: lo + 2}
				p.NumSACK++
			}
		}, now)

	case AttackDupFlood:
		for i := 0; i <= dupFloodCopies; i++ {
			h.emitHonest(pkt.Seq, nil, now)
		}

	case AttackWithholder:
		if h.Total <= withholdAfter {
			h.emitHonest(pkt.Seq, nil, now)
		}
	}
}

func (h *AttackHost) emit(mutate func(*netem.Packet), now sim.Time) {
	h.conn.EmitFromReceiver(func(p *netem.Packet) {
		p.Kind = netem.KindAck
		mutate(p)
	}, now)
}

// emitHonest builds the ACK an honest receiver would send (cumulative
// point, up to MaxSACKBlocks bottom-up runs, true receive count, valid
// receipt fold) and lets mutate distort it.
func (h *AttackHost) emitHonest(trigger int32, mutate func(*netem.Packet), now sim.Time) {
	h.emit(func(p *netem.Packet) {
		p.CumAck = h.cum
		p.AckedSeq = trigger
		p.RecvTotal = h.Total
		p.Nonce = h.cumFold
		limit := h.maxSeq + 1
		for s := h.cum; s < limit && p.NumSACK < netem.MaxSACKBlocks; {
			if !h.got[s] {
				s++
				continue
			}
			lo := s
			for s < limit && h.got[s] {
				s++
			}
			p.SACK[p.NumSACK] = netem.SeqRange{Lo: lo, Hi: s}
			p.NumSACK++
			for q := lo; q < s; q++ {
				p.Nonce ^= h.nonces[q]
			}
		}
		if mutate != nil {
			mutate(p)
		}
	}, now)
}

// expectedAttackReasons returns the abort reasons the bounded-waste
// contract permits for one attacker under one validation mode; an
// empty reason (AbortNone) in the set means honest completion is an
// accepted terminal state. The table is the behavioural spec:
//
//   - Under AckValidationAbort every lying attacker is detected and
//     the flow dies with AbortPeerMisbehavior. The withholder never
//     lies — silence is indistinguishable from a dead network — so its
//     bound comes from the retransmission budget.
//   - Under AckValidationClamp flagged ACKs are dropped; attackers
//     whose every ACK is a lie starve the sender into the
//     retransmission budget, while the dup-ACK flooder's honest ACKs
//     still drive the flow to completion.
func expectedAttackReasons(attack string, mode transport.AckValidationMode) []transport.AbortReason {
	if mode == transport.AckValidationAbort {
		switch attack {
		case AttackWithholder:
			return []transport.AbortReason{transport.AbortRetxBudgetExhausted}
		default:
			return []transport.AbortReason{transport.AbortPeerMisbehavior}
		}
	}
	switch attack {
	case AttackDupFlood:
		return []transport.AbortReason{transport.AbortNone} // completes honestly
	default:
		return []transport.AbortReason{transport.AbortRetxBudgetExhausted}
	}
}
