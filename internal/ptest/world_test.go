package ptest

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// worldTopology is one network shape a transport.World can stand on:
// its bottleneck links and the host pairs flows run between.
type worldTopology struct {
	name  string
	first netem.FlowID
	build func(*sim.Scheduler, *sim.Rand) (*netem.Network, []*netem.Link, [][2]*netem.Node)
}

func worldTopologies() []worldTopology {
	return []worldTopology{
		{"path", 1, func(s *sim.Scheduler, r *sim.Rand) (*netem.Network, []*netem.Link, [][2]*netem.Node) {
			p := netem.NewPath(s, r, netem.PathConfig{RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond, BufferBytes: 115_000})
			return p.Net, []*netem.Link{p.Forward, p.Back}, [][2]*netem.Node{{p.Server, p.Client}}
		}},
		{"dumbbell", 0, func(s *sim.Scheduler, r *sim.Rand) (*netem.Network, []*netem.Link, [][2]*netem.Node) {
			d := netem.NewDumbbell(s, r, netem.DumbbellConfig{Pairs: 4})
			var pairs [][2]*netem.Node
			for i := range d.Senders {
				pairs = append(pairs, [2]*netem.Node{d.Senders[i], d.Receivers[i]})
			}
			return d.Net, []*netem.Link{d.Bottleneck, d.Reverse}, pairs
		}},
		{"parkinglot", 7, func(s *sim.Scheduler, r *sim.Rand) (*netem.Network, []*netem.Link, [][2]*netem.Node) {
			pl := netem.NewParkingLot(s, r)
			pairs := [][2]*netem.Node{{pl.Src, pl.Dst}}
			for i := range pl.CrossSrc {
				pairs = append(pairs, [2]*netem.Node{pl.CrossSrc[i], pl.CrossDst[i]})
			}
			return pl.Net, pl.Bottlenecks, pairs
		}},
	}
}

// TestWorldTeardownInvariants runs a few flows in every shape of world
// the repository builds — path, dumbbell, parking lot — clean, under the
// torture preset on every bottleneck, and into a permanent blackout, and
// checks what World.Run and World.Drain promise whatever happened:
// the scheduler drains, packets are conserved, every flow is terminal,
// Finished never outgrows Conns, and flows are numbered first … first+n−1.
// Two rows go through RunSupervised, one of them into a stall.
func TestWorldTeardownInvariants(t *testing.T) {
	const flows = 6
	adversities := []struct {
		name string
		adv  netem.Adversity
	}{
		{"clean", netem.Adversity{}},
		{"torture", netem.MustAdversityPreset("torture")},
		{"blackout", netem.Adversity{BlackoutAt: sim.Time(600 * sim.Millisecond)}},
	}
	type row struct {
		topo       worldTopology
		adv        int
		scheme     string
		supervised bool
	}
	var rows []row
	topos := worldTopologies()
	for _, topo := range topos {
		for a := range adversities {
			for _, name := range []string{scheme.Halfback, scheme.TCP} {
				rows = append(rows, row{topo: topo, adv: a, scheme: name})
			}
		}
	}
	rows = append(rows,
		row{topo: topos[1], adv: 0, scheme: scheme.Halfback, supervised: true},
		row{topo: topos[0], adv: 2, scheme: scheme.TCP, supervised: true})

	// One World serves every row, so each Reset meets the stacks, flows
	// and Finished of a differently shaped predecessor.
	var w transport.World
	for i, r := range rows {
		adv := adversities[r.adv]
		t.Run(fmt.Sprintf("%s/%s/%s/supervised=%v", r.topo.name, adv.name, r.scheme, r.supervised), func(t *testing.T) {
			net, bottlenecks, pairs := r.topo.build(sim.NewScheduler(), sim.NewRand(uint64(i)+1))
			for _, l := range bottlenecks {
				l.SetAdversity(adv.adv)
			}
			w.Reset(net, r.topo.first)
			if r.supervised {
				w.Opts.MaxTimeouts = -1 // never give up: only supervision ends a doomed flow
			}
			inst := scheme.MustNew(r.scheme)
			for f := 0; f < flows; f++ {
				pair := pairs[f%len(pairs)]
				c := w.Dial(pair[0], pair[1], 30_000+10_000*f, w.Opts, inst.Make, nil)
				w.StartAt(sim.Time(f)*sim.Time(200*sim.Millisecond), c) // half of them after the blackout
			}

			if r.supervised {
				err := w.RunSupervised(sim.SuperviseConfig{
					Horizon: sim.Time(120 * sim.Second), StallWindow: 20 * sim.Second,
				})
				if stalled := errors.Is(err, sim.ErrStalled); stalled != (adv.name == "blackout") {
					t.Fatalf("RunSupervised under %s: %v", adv.name, err)
				}
			} else {
				w.Run(60 * sim.Second)
			}
			drained, conserved := w.Drain()
			if !drained || !conserved {
				t.Fatalf("drained=%v conserved=%v", drained, conserved)
			}

			conns := w.Conns()
			if len(conns) != flows || len(w.Finished) > len(conns) {
				t.Fatalf("%d conns, %d finished, %d dialled", len(conns), len(w.Finished), flows)
			}
			for k, c := range conns {
				if !c.Finished() {
					t.Errorf("flow %d is not terminal after Run", c.ID)
				}
				if c.ID != r.topo.first+netem.FlowID(k) {
					t.Errorf("conn %d has flow ID %d, want %d", k, c.ID, r.topo.first+netem.FlowID(k))
				}
			}
			if adv.name == "clean" && (len(w.Finished) != flows || w.CompletionRate() != 1) {
				t.Errorf("clean world finished %d of %d flows", len(w.Finished), flows)
			}
			if adv.name == "blackout" && len(w.Finished) == flows {
				t.Errorf("every flow outlived a permanent blackout")
			}
		})
	}
}

// TestWorldRunForever: "run until nothing is left" is Run(forever). Once
// the clock had left zero the deadline used to wrap negative and Run
// aborted every flow without running an event.
func TestWorldRunForever(t *testing.T) {
	w := NewWorld(netem.PathConfig{})
	w.Run(sim.Second)
	c := w.Dial(50_000, transport.Options{}, scheme.MustNew(scheme.TCP).Make)
	w.StartAt(w.Sched.Now(), c)
	w.Run(math.MaxInt64)
	if !c.Stats.Completed || c.Stats.Aborted {
		t.Fatalf("flow completed=%v aborted=%v after Run(forever)", c.Stats.Completed, c.Stats.Aborted)
	}
	if drained, conserved := w.Drain(); !drained || !conserved {
		t.Fatalf("drained=%v conserved=%v", drained, conserved)
	}
}
