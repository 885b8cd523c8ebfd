package ptest

import (
	"fmt"
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// TestPayloadIntegrityAllSchemes is the end-to-end integrity gate from
// the issue: every registered scheme — not just the paper's eight —
// moves a pseudorandom 1 MB payload across a lossy, reordering dumbbell
// and the receiver's checksum matches the sender's, with every segment
// delivered to the application exactly once.
func TestPayloadIntegrityAllSchemes(t *testing.T) {
	const flowBytes = 1_000_000
	names := scheme.AllNames()
	_, err := fleet.MapOpts(fleet.Options{Label: func(i int) string {
		return names[i]
	}}, len(names), func(i, _ int) (struct{}, error) {
		name := names[i]
		sched := sim.NewScheduler()
		sched.MaxEvents = 100_000_000
		d := netem.NewDumbbell(sched, sim.NewRand(1234), netem.DumbbellConfig{Pairs: 1})
		d.Bottleneck.LossProb = 0.01
		adv := netem.Adversity{ReorderProb: 0.10, ReorderDelay: 4 * sim.Millisecond}
		d.Bottleneck.SetAdversity(adv)
		d.Reverse.SetAdversity(adv)

		sender := transport.NewStack(d.Net, d.Senders[0])
		receiver := transport.NewStack(d.Net, d.Receivers[0])
		conn := transport.NewConn(1, sender, receiver, flowBytes, transport.Options{}, scheme.MustNew(name).Make, nil)
		var deliveries int32
		conn.OnDeliver = func(int, sim.Time) { deliveries++ }
		conn.Start(0)
		sched.RunUntil(sim.Time(120 * sim.Second))

		if !conn.Stats.Completed {
			return struct{}{}, fmt.Errorf("%s: 1 MB flow did not complete", name)
		}
		if got, want := conn.Stats.PayloadSumRecv, conn.ExpectedPayloadSum(); got != want {
			return struct{}{}, fmt.Errorf("%s: payload checksum %#x, want %#x", name, got, want)
		}
		if deliveries != conn.NumSegs() {
			return struct{}{}, fmt.Errorf("%s: app saw %d deliveries for %d segments", name, deliveries, conn.NumSegs())
		}
		conn.Abort()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
