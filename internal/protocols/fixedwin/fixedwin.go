// Package fixedwin is the deliberately trivial scheme that demonstrates
// what adding a scheme costs (DESIGN.md §10's walkthrough): a constant
// sliding window of W segments, no growth, no pacing, timeout recovery
// only through the transport's RTO (on which it retransmits the
// cumulative point). It is the smallest possible window controller: at
// the end of OnEstablished, OnAck and OnLoss it fills the window,
// retransmissions first.
//
// It exists as a living example and a conformance-suite subject, not as
// a scheme the paper evaluates.
package fixedwin

import (
	"halfback/internal/cc"
	"halfback/internal/sim"
)

// DefaultWindow is the constant window used by the registry entry: four
// segments, between TCP's initial 2 and TCP-10's 10.
const DefaultWindow = 4

// fixedWinState is the controller's state.
type fixedWinState struct {
	Window     int32
	RetxBudget int
}

// Logic is the fixed-window controller.
type Logic struct {
	st fixedWinState
}

// New returns the Controller factory for a constant window of w segments
// (w <= 0 selects DefaultWindow).
func New(w int32) func() cc.Controller {
	return func() cc.Controller {
		return &Logic{st: fixedWinState{Window: w, RetxBudget: 1}}
	}
}

// OnEstablished resolves a window of w <= 0 to DefaultWindow and sends
// the first window.
func (l *Logic) OnEstablished(env cc.Env, now sim.Time) {
	if l.st.Window < 1 {
		l.st.Window = DefaultWindow
	}
	l.fill(env, now)
}

// OnAck refills the window: a fixed window has nothing to learn from an
// ACK, but the scoreboard advanced.
func (l *Logic) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) { l.fill(env, now) }

// OnLoss applies the timeout presumption, widens the per-segment
// retransmission budget and retransmits the cumulative point itself,
// as Reno does on a timeout, then refills the window. Refilling alone
// is not enough: Pipe counts every retransmitted copy above the
// cumulative point until that point advances, so once a retransmission
// is lost it can read Window at every later timeout and fill's gate
// would never open again.
func (l *Logic) OnLoss(env cc.Env, now sim.Time) {
	l.st.RetxBudget++
	sc := env.Sack()
	sc.MarkOutstandingLost()
	if !env.Finished() {
		env.SendSegment(sc.CumAck(), true, false, now)
	}
	l.fill(env, now)
}

// OnTimer is a no-op: the scheme arms no timers and never paces, so the
// connection never calls it.
func (l *Logic) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {}

// fill sends while the constant window has room: inferred losses first
// (so the flow can finish on lossy paths), then new data under the
// flow-control limit.
func (l *Logic) fill(env cc.Env, now sim.Time) {
	sc := env.Sack()
	guard := 0
	for {
		guard++
		if guard > 4096 {
			panic("fixedwin: send loop did not converge")
		}
		if env.Finished() {
			return
		}
		if sc.Pipe(env.DupThresh()) >= l.st.Window {
			return
		}
		if lost := sc.NextLost(sc.CumAck(), env.DupThresh(), l.st.RetxBudget); lost >= 0 {
			env.SendSegment(lost, true, false, now)
			continue
		}
		next := sc.HighSent() + 1
		if next >= env.NumSegs() || next >= env.WindowLimit() {
			return
		}
		env.SendSegment(next, false, false, now)
	}
}

// Decision reports the constant window.
func (l *Logic) Decision() cc.Decision { return cc.Decision{CwndSegs: float64(l.st.Window)} }
