// FuzzControllerTrace throws random but transport-shaped event sequences —
// ACKs (in-order, duplicate, SACK-bearing), timeouts, armed-timer
// fires, pace completions, probe feedback — at every controller in the
// registry and requires the safety net to hold: no panic, no negative
// or non-finite window/rate, no unbounded send work, and no Env
// contract violation (out-of-range sends, bad pace ranges).
//
// The trace respects the transport's contract (timers fire only while
// armed, pace-done follows a Pace request), so a finding here is a real
// controller bug, not an artifact of an impossible schedule.
package cc_test

import (
	"math"
	"testing"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
)

// fuzzMaxOps bounds one trace; fuzzMaxSends is the unbounded-work
// tripwire — a 16-segment flow with saturating per-segment budgets can
// never legitimately approach it.
const (
	fuzzMaxOps   = 512
	fuzzMaxSends = 200_000
)

func FuzzControllerTrace(f *testing.F) {
	// One seed per behaviour class: in-order drain, SACK loss recovery,
	// timeout storms, timer-heavy schedules, probe feedback.
	f.Add(byte(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(3), []byte{4, 0, 1, 1, 0, 2, 0, 0, 3, 0, 1, 2, 0})
	f.Add(byte(7), []byte{2, 2, 2, 2, 2, 0, 2, 2, 0})
	f.Add(byte(9), []byte{3, 3, 5, 12, 3, 40, 3, 5, 3, 0, 3})
	f.Add(byte(12), []byte{4, 6, 0, 3, 6, 0, 1, 3, 2, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, pick byte, ops []byte) {
		names := scheme.AllNames()
		name := names[int(pick)%len(names)]
		ctrl := scheme.MustNew(name).Make()
		e := newTraceEnv(16)

		check := func(i int) {
			d := ctrl.Decision()
			for _, v := range []float64{d.CwndSegs, d.RateBps} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s op %d: decision %+v went negative or non-finite", name, i, d)
				}
			}
			if len(e.sends) > fuzzMaxSends {
				t.Fatalf("%s op %d: %d sends — unbounded work", name, i, len(e.sends))
			}
		}

		ctrl.OnEstablished(e, 0)
		check(-1)

		pacesDone := 0
		for i := 0; i < len(ops) && i < fuzzMaxOps; i++ {
			// The transport finishes a fully acknowledged flow and stops
			// delivering events; the completing ACK itself never reaches
			// the controller (processAck returns after finish).
			if e.sc.AllAcked() {
				break
			}
			op := ops[i]
			switch op % 7 {
			case 0: // in-order cumulative progress
				cum := e.sc.CumAck()
				if cum+1 >= e.numSegs {
					break // next ACK would complete the flow
				}
				if cum <= e.sc.HighSent() {
					e.advance(5 * sim.Millisecond)
					e.ack(ctrl, cum+1)
				}
			case 1: // duplicate / SACK-bearing ACK shaped by the op byte
				lo := int32(op/7) % e.numSegs
				hi := lo + 1 + int32(op%5)
				e.advance(sim.Millisecond)
				e.ack(ctrl, e.sc.CumAck(), netem.SeqRange{Lo: lo, Hi: hi})
			case 2: // retransmission timeout
				e.advance(200 * sim.Millisecond)
				e.timeout(ctrl)
			case 3: // fire the lowest armed controller timer (one-shot)
				for k := 0; k < cc.NumTimerKinds; k++ {
					kind := cc.TimerKind(k)
					if _, ok := e.armed[kind]; ok {
						delete(e.armed, kind)
						e.advance(sim.Millisecond)
						ctrl.OnTimer(e, kind, e.now)
						break
					}
				}
			case 4: // complete an outstanding pace request
				if len(e.paces) > pacesDone {
					p := e.paces[len(e.paces)-1]
					for seq := p.Lo; seq < p.Hi; seq++ {
						if !e.sc.SentOnce(seq) {
							e.sc.NoteSend(seq, false)
						}
					}
					pacesDone = len(e.paces)
					e.now = e.now.Add(p.Total)
					ctrl.OnTimer(e, cc.TimerPaceDone, e.now)
				}
			case 5: // probe feedback (PCP; others must tolerate it)
				e.probeAck(ctrl, int32(op>>3), sim.Duration(op)*sim.Millisecond)
			case 6: // let time pass
				e.advance(sim.Duration(op) * sim.Millisecond)
			}
			check(i)
		}

		if len(e.violations) > 0 {
			t.Fatalf("%s: env contract violations: %v", name, e.violations)
		}
		// Terminal path: the done hook must also be safe.
		e.finished, e.completed = true, true
		e.finAt = e.now
		if dh, ok := ctrl.(cc.DoneHook); ok {
			dh.OnDone(e, e.now)
		}
	})
}
