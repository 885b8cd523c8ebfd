// Package tcp implements the baseline schemes of the paper's §4: vanilla
// TCP (Reno congestion control with SACK-based loss recovery, 2-segment
// initial window), TCP-10 (initial window of 10 segments, [6,15]) and
// TCP-Cache (per-path caching of cwnd/ssthresh, after TCP Fast Start).
//
// The implementation follows RFC 5681 (congestion control), RFC 6675
// (SACK-based recovery and pipe estimation) and Karn's rule, expressed
// as a cc.Controller.
package tcp

import (
	"halfback/internal/cc"
	"halfback/internal/sim"
)

// Config selects the TCP variant.
type Config struct {
	// InitialWindow is the initial congestion window in segments.
	// The paper defaults TCP to 2 segments (§4.1); TCP-10 uses 10.
	InitialWindow int32

	// Cache, when non-nil, makes the sender a TCP-Cache flow: the
	// initial cwnd/ssthresh come from the last completed flow on the
	// same (src,dst) path, and final values are written back.
	Cache *PathCache

	// OnSend, when non-nil, runs after every data transmission; the
	// Proactive TCP wrapper uses it to emit duplicate copies.
	OnSend func(env cc.Env, seq int32, retransmit bool, now sim.Time)
}

// Reno is the controller. It is exported so the Reactive and Proactive
// packages can wrap it and Halfback's fallback phase can drive it.
type Reno struct {
	Conf Config

	Cwnd     float64 // congestion window, segments
	Ssthresh float64

	InRecovery    bool
	RecoveryPoint int32
	// RetxBudget is how many retransmissions of one segment the
	// SACK-recovery path may issue; it grows with timeouts so a flow
	// can always eventually make progress.
	RetxBudget int
}

// New returns a Controller factory for the given configuration.
func New(conf Config) func() cc.Controller {
	return func() cc.Controller { return NewReno(conf) }
}

// NewReno constructs the Reno controller.
func NewReno(conf Config) *Reno {
	if conf.InitialWindow <= 0 {
		conf.InitialWindow = 2
	}
	return &Reno{
		Conf:       conf,
		Cwnd:       float64(conf.InitialWindow),
		Ssthresh:   1 << 20, // "infinite": slow start until first loss
		RetxBudget: 1,
	}
}

// OnEstablished seeds the window (from the cache if warm) and sends the
// initial burst.
func (r *Reno) OnEstablished(env cc.Env, now sim.Time) {
	if r.Conf.Cache != nil {
		src, dst := env.Path()
		if e, ok := r.Conf.Cache.Lookup(src, dst); ok {
			if e.Cwnd >= 1 {
				r.Cwnd = e.Cwnd
			}
			if e.Ssthresh >= 2 {
				r.Ssthresh = e.Ssthresh
			}
		}
	}
	r.pump(env, now)
}

// OnAck advances the window and drives RFC 6675-style recovery.
func (r *Reno) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	sc := env.Sack()

	if ev.NewCumAcked > 0 {
		if r.InRecovery && sc.CumAck() > r.RecoveryPoint {
			// Recovery complete: deflate to ssthresh.
			r.InRecovery = false
			r.Cwnd = r.Ssthresh
		}
		if !r.InRecovery {
			if r.Cwnd < r.Ssthresh {
				r.Cwnd += float64(ev.NewCumAcked) // slow start
			} else {
				r.Cwnd += float64(ev.NewCumAcked) / r.Cwnd // congestion avoidance
			}
		}
	}

	// Loss inference: a hole with DupThresh SACKed segments above it.
	if !r.InRecovery {
		if lost := sc.NextLost(sc.CumAck(), env.DupThresh(), r.RetxBudget); lost >= 0 {
			r.enterRecovery(env, now)
		}
	}
	r.pump(env, now)
}

func (r *Reno) enterRecovery(env cc.Env, now sim.Time) {
	sc := env.Sack()
	pipe := float64(sc.Pipe(env.DupThresh()))
	r.Ssthresh = max(pipe/2, 2)
	r.Cwnd = r.Ssthresh
	r.InRecovery = true
	r.RecoveryPoint = sc.HighSent()
}

// OnLoss handles the retransmission timeout: collapse the window,
// presume all outstanding data lost (RFC 5681), and retransmit the
// first hole; subsequent holes follow in slow start as ACKs return.
func (r *Reno) OnLoss(env cc.Env, now sim.Time) {
	sc := env.Sack()
	pipe := float64(sc.Pipe(env.DupThresh()))
	r.Ssthresh = max(pipe/2, 2)
	r.Cwnd = 1
	r.InRecovery = false
	r.RetxBudget++
	sc.MarkOutstandingLost()
	r.transmit(env, sc.CumAck(), true, now)
}

// OnTimer is a no-op: Reno owns no controller timers.
func (r *Reno) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {}

// Decision reports the current window.
func (r *Reno) Decision() cc.Decision { return cc.Decision{CwndSegs: r.Cwnd} }

// OnDone writes the final window back to the path cache.
func (r *Reno) OnDone(env cc.Env, now sim.Time) {
	if r.Conf.Cache != nil {
		src, dst := env.Path()
		r.Conf.Cache.Store(src, dst, CacheEntry{Cwnd: r.Cwnd, Ssthresh: r.Ssthresh})
	}
}

// Pump exposes the window-filling loop so schemes that fall back to TCP
// mid-flow (Halfback §3.3) can drive the engine directly.
func (r *Reno) Pump(env cc.Env, now sim.Time) { r.pump(env, now) }

// transmit sends one segment through the env and the OnSend hook.
func (r *Reno) transmit(env cc.Env, seq int32, retransmit bool, now sim.Time) {
	env.SendSegment(seq, retransmit, false, now)
	if r.Conf.OnSend != nil {
		r.Conf.OnSend(env, seq, retransmit, now)
	}
}

// pump fills the window: retransmissions of inferred losses first (RFC
// 6675 NextSeg rule), then new data, while the pipe has room.
func (r *Reno) pump(env cc.Env, now sim.Time) {
	if env.Finished() || !env.Established() {
		return
	}
	sc := env.Sack()
	guard := 0
	for {
		guard++
		if guard > 4096 {
			panic("tcp: pump did not converge")
		}
		// A retransmission budget can abort the flow mid-loop; once
		// terminal, SendSegment is a no-op and the scoreboard stops
		// advancing, so looping further would spin to the guard panic.
		if env.Finished() {
			return
		}
		pipe := sc.Pipe(env.DupThresh())
		if float64(pipe) >= r.Cwnd {
			return
		}
		if lost := sc.NextLost(sc.CumAck(), env.DupThresh(), r.RetxBudget); lost >= 0 {
			r.transmit(env, lost, true, now)
			continue
		}
		next := sc.HighSent() + 1
		if next >= env.NumSegs() || next >= env.WindowLimit() {
			return
		}
		r.transmit(env, next, false, now)
	}
}
