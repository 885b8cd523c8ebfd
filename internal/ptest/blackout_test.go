package ptest

import (
	"testing"

	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// budgetOpts is the lifecycle configuration the blackout tests give up
// under: backoff capped at 4 s, eight consecutive timeouts, a generous
// cumulative retransmission budget for probe-happy schemes. Worst-case
// give-up is ~31 s of virtual time, far inside the harness horizon.
func budgetOpts() transport.Options {
	o := transport.Options{}
	o.MaxRTO = 4 * sim.Second
	o.MaxTimeouts = 8
	o.MaxRetx = 600
	o.MaxSynRetx = 6
	return o
}

// blackoutFlowBytes keeps every scheme mid-flow when the 200 ms outage
// hits: ~1 MB needs ~0.6 s of wire time on the default 15 Mbps path.
const blackoutFlowBytes = 1_000_000

// Every evaluated scheme must fail gracefully when the path dies
// mid-flow: terminal abort with the retransmission-budget reason,
// within the budget's worst-case give-up time, leaving a drained
// scheduler and conserved packets.
func TestBlackoutAbortsEveryScheme(t *testing.T) {
	for _, name := range scheme.Evaluated() {
		u := OutageUniverse(7, sim.Time(200*sim.Millisecond))
		res := Run(u, name, blackoutFlowBytes, budgetOpts(), "")
		if err := res.BlackoutErr(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.AbortReason != transport.AbortRetxBudgetExhausted {
			t.Errorf("%s: abort reason %v, want retx-budget", name, res.AbortReason)
		}
		if res.AbortedAt > sim.Time(60*sim.Second) {
			t.Errorf("%s: gave up at %v, want within the ~31 s budget", name, res.AbortedAt)
		}
		if res.Stats.Completed {
			t.Errorf("%s: flow claims completion through a permanent outage", name)
		}
	}
}

// A world that is dark from birth never completes the handshake: with a
// SYN retransmission cap the connection must abort with the handshake
// reason (and without data-plane budgets ever being consulted).
func TestBlackoutHandshakeTimeout(t *testing.T) {
	for _, name := range scheme.Evaluated() {
		u := OutageUniverse(7, 1) // dark from t=1 ns
		o := transport.Options{}
		o.MaxSynRetx = 3
		res := Run(u, name, 50_000, o, "")
		if err := res.BlackoutErr(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.AbortReason != transport.AbortHandshakeTimeout {
			t.Errorf("%s: abort reason %v, want handshake-timeout", name, res.AbortReason)
		}
		// 3 SYN retransmissions under doubling from the 1 s InitialRTO
		// give up on the next firing: ≤ 1+2+4+8 = 15 s, plus slack.
		if res.AbortedAt > sim.Time(31*sim.Second) {
			t.Errorf("%s: handshake gave up at %v, want ≤ 31 s", name, res.AbortedAt)
		}
	}
}

// With retry budgets disabled entirely, the deadline is the backstop:
// the flow aborts with the deadline reason at exactly Start+deadline.
func TestBlackoutDeadline(t *testing.T) {
	const deadline = 10 * sim.Second
	for _, name := range scheme.Evaluated() {
		u := OutageUniverse(7, sim.Time(200*sim.Millisecond))
		o := transport.Options{}
		o.MaxTimeouts = -1 // retry forever
		o.FlowDeadline = deadline
		res := Run(u, name, blackoutFlowBytes, o, "")
		if err := res.BlackoutErr(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.AbortReason != transport.AbortDeadlineExceeded {
			t.Errorf("%s: abort reason %v, want deadline", name, res.AbortReason)
		}
		if res.AbortedAt != sim.Time(deadline) {
			t.Errorf("%s: deadline fired at %v, want exactly %v", name, res.AbortedAt, deadline)
		}
	}
}

// Abort monotonicity, part one: a budget at least as large as what a
// completing flow actually used changes nothing — same completion, same
// instant. Budgets only ever bite below actual usage.
func TestAbortBudgetSufficiencyIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		u := RandomUniverse(seed) // hostile, recoverable
		u.Horizon = blackoutHorizon
		for _, name := range scheme.Evaluated() {
			base := Run(u, name, 60_000, transport.Options{}, "")
			if !base.Stats.Completed {
				t.Fatalf("%s seed=%d: control run did not complete", name, seed)
			}
			o := transport.Options{}
			o.MaxRetx = int(base.Stats.NormalRetx + base.Stats.ProactiveRetx)
			o.FlowDeadline = base.Stats.SenderDone.Sub(0) + sim.Duration(1)
			got := Run(u, name, 60_000, o, "")
			if !got.Stats.Completed || got.Stats.Aborted {
				t.Errorf("%s seed=%d: exact budget turned completion into %+v",
					name, seed, got.Stats.AbortReason)
				continue
			}
			if got.Stats.SenderDone != base.Stats.SenderDone {
				t.Errorf("%s seed=%d: exact budget shifted completion %v → %v",
					name, seed, base.Stats.SenderDone, got.Stats.SenderDone)
			}
		}
	}
}

// Abort monotonicity, part two: however tight the budgets, a flow
// always reaches a terminal state — completed, aborted, or (in the
// race where the receiver holds every byte but the sender's budget
// fires before the final ACK arrives) both — never a hang. The world
// stays clean either way.
func TestAbortTightBudgetsNeverHang(t *testing.T) {
	tight := []transport.Options{
		{MaxRetx: 1},
		{FlowDeadline: 300 * sim.Millisecond},
		{MaxTimeouts: 1, MaxRetx: 2, FlowDeadline: 2 * sim.Second, MaxSynRetx: 1},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		u := RandomUniverse(seed)
		u.Horizon = blackoutHorizon
		for _, name := range scheme.Evaluated() {
			for i, o := range tight {
				res := Run(u, name, 60_000, o, "")
				if !res.Stats.Completed && !res.Stats.Aborted {
					t.Errorf("%s seed=%d opts#%d: flow reached neither terminal state",
						name, seed, i)
				}
				if !res.Drained {
					t.Errorf("%s seed=%d opts#%d: scheduler did not drain", name, seed, i)
				}
				if !res.Conserved {
					t.Errorf("%s seed=%d opts#%d: packet conservation violated", name, seed, i)
				}
			}
		}
	}
}

// The abort reason is a property of the fault, not of packet timing:
// overlaying different reorderings on the same permanent outage must
// not change how the flow classifies its own death.
func TestAbortReasonStableUnderReordering(t *testing.T) {
	for _, name := range scheme.Evaluated() {
		var want transport.AbortReason
		for i, p := range []float64{0, 0.15, 0.30} {
			u := OutageUniverse(uint64(11+i), sim.Time(200*sim.Millisecond))
			u.Adv.ReorderProb, u.Adv.ReorderDelay = p, 2*sim.Millisecond
			res := Run(u, name, blackoutFlowBytes, budgetOpts(), "")
			if err := res.BlackoutErr(); err != nil {
				t.Errorf("%s reorder=%.2f: %v", name, p, err)
				continue
			}
			if i == 0 {
				want = res.AbortReason
				continue
			}
			if res.AbortReason != want {
				t.Errorf("%s: reorder=%.2f changed abort reason %v → %v",
					name, p, want, res.AbortReason)
			}
		}
	}
}
