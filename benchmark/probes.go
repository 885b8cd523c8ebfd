package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/fleet"
	"halfback/internal/fleet/dist"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// Probes time calls into one layer's exported functions from outside:
// fixed-size loops, five batches each, reporting the fastest batch. They
// do not depend on the workload or the seed (inputs are pinned), so the
// same probe reads the same thing on every run and a change in one is a
// change in that layer.

const probeBatches = 5

// probeSeed pins every probe input.
const probeSeed = 1

// sink keeps probe results reachable so the compiler cannot drop the
// calls that produced them.
var sink any

// perOp runs batch probeBatches times and returns the time of one of its
// n operations in the fastest batch, in nanoseconds. prepare, when non-nil, rebuilds
// untimed state before every batch.
func perOp(n int, prepare func(), batch func()) float64 {
	times := make([]float64, probeBatches)
	for b := range times {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		batch()
		times[b] = float64(time.Since(start)) / float64(n)
	}
	return fastest(times)
}

// allocsPerOp reports heap objects and bytes allocated per operation of
// one run of fn, which performs n of them.
func allocsPerOp(n int, fn func()) (objects, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

func us(nanos float64) float64 { return nanos / 1e3 }
func ms(nanos float64) float64 { return nanos / 1e6 }

// probeSet collects the metrics of the workload-independent probes.
type probeSet struct {
	h   *harness
	out map[string]float64
}

// probe runs fn inside a span named after the layer it calls into.
func (p *probeSet) probe(layer string, fn func()) { p.h.tr.in("probe "+layer, fn) }

func (h *harness) runProbes() (map[string]float64, error) {
	p := &probeSet{h: h, out: make(map[string]float64)}
	p.probe("sim", p.simProbes)
	p.probe("netem", p.netemProbes)
	p.probe("transport", p.transportProbes)
	var err error
	p.probe("cc", func() { err = p.ccProbes() })
	if err != nil {
		return nil, err
	}
	p.probe("experiment", func() { err = p.experimentProbes() })
	if err != nil {
		return nil, err
	}
	p.probe("workload", p.workloadProbes)
	p.probe("metrics", p.metricsProbes)
	p.probe("fleet", func() { err = p.fleetProbes() })
	if err != nil {
		return nil, err
	}
	p.probe("fleet.dist", func() { err = p.distProbes() })
	return p.out, err
}

func nopEvent(sim.Time, any) {}

func (p *probeSet) simProbes() {
	// Deadlines that land in the slack-window heap, each wheel level and
	// the overflow heap, as BenchmarkSchedulerChurn spreads them.
	offsets := [...]sim.Duration{1, 1 << 14, 1 << 18, 1 << 26, 1 << 34, 1 << 42}
	const n = 400_000
	s := sim.NewScheduler()
	for i := 0; i < 1024; i++ {
		s.AfterFunc(offsets[i%len(offsets)], nopEvent, nil)
	}
	p.out["sim.schedule_fire_ns"] = perOp(n, nil, func() {
		for i := 0; i < n; i++ {
			s.AfterFunc(offsets[i%len(offsets)], nopEvent, nil)
			s.Step()
		}
	})

	// The RTO-reset pattern: an ACK event fires, the pending retransmit
	// timer is stopped and re-armed.
	s = sim.NewScheduler()
	rto := 200 * sim.Millisecond
	tm := s.AfterFunc(rto, nopEvent, nil)
	p.out["sim.timer_reset_ns"] = perOp(n, nil, func() {
		for i := 0; i < n; i++ {
			s.AfterFunc(sim.Millisecond, nopEvent, nil)
			s.Step()
			tm.Stop()
			tm = s.AfterFunc(rto, nopEvent, nil)
		}
	})

	const m = 2000
	build := func() {
		for i := 0; i < m; i++ {
			sink = sim.NewScheduler()
		}
	}
	p.out["sim.new_scheduler_us"] = us(perOp(m, nil, build))
	_, bytes := allocsPerOp(m, build)
	p.out["sim.new_scheduler_kb"] = bytes / 1024
}

// linkPair is one 1 Gbit/s, 1 ms link between two nodes, the shape
// BenchmarkLinkDrain drives.
func linkPair(adv netem.Adversity) (*sim.Scheduler, *netem.Network, *netem.Node, *netem.Node) {
	sched := sim.NewScheduler()
	nw := netem.NewNetwork(sched, sim.NewRand(probeSeed))
	src, dst := nw.AddNode("src"), nw.AddNode("dst")
	l := nw.AddLink(src, dst, netem.LinkConfig{RateBps: 1000 * netem.Mbps, Delay: sim.Millisecond})
	nw.ComputeRoutes()
	if adv.Enabled() {
		l.SetAdversity(adv)
	}
	dst.Deliver = func(*netem.Packet, sim.Time) {}
	return sched, nw, src, dst
}

func (p *probeSet) netemProbes() {
	const n, burst = 256_000, 64
	drain := func(adv netem.Adversity) func() {
		sched, nw, src, dst := linkPair(adv)
		return func() {
			for i := 0; i < n; i += burst {
				for j := 0; j < burst; j++ {
					pkt := nw.NewPacket()
					pkt.Src, pkt.Dst = src.ID, dst.ID
					pkt.Size = netem.SegmentSize
					nw.Inject(pkt, sched.Now())
				}
				sched.Run()
			}
		}
	}
	fast := drain(netem.Adversity{})
	fast() // fill the packet pool, event pool and rings
	p.out["netem.link_pkt_ns"] = perOp(n, nil, fast)
	objects, _ := allocsPerOp(n, fast)
	p.out["netem.link_pkt_allocs"] = objects
	// Same link, every adversity knob on: the ring fast path is off and
	// each packet draws reorder, duplication, corruption and jitter.
	adverse := drain(netem.MustAdversityPreset("torture"))
	adverse()
	p.out["netem.link_pkt_adverse_ns"] = perOp(n, nil, adverse)

	const m = 5000
	sched := sim.NewScheduler()
	rng := sim.NewRand(probeSeed)
	p.out["netem.new_path_us"] = us(perOp(m, nil, func() {
		for i := 0; i < m; i++ {
			sink = netem.NewPath(sched, rng, defaultPath)
		}
	}))
	p.out["netem.new_dumbbell_us"] = us(perOp(m/5, nil, func() {
		for i := 0; i < m/5; i++ {
			sink = netem.NewDumbbell(sched, rng, netem.DumbbellConfig{Pairs: 16})
		}
	}))
}

// defaultPath is the paper's default path: 15 Mbit/s, 60 ms, a BDP of
// buffer, no loss.
var defaultPath = netem.PathConfig{RateBps: 15 * netem.Mbps, RTT: 60 * sim.Millisecond, BufferBytes: 115_000}

// flowSegs is a 100 KB flow in segments, the size every exhibit the
// benchmark runs transfers.
var flowSegs = int32(netem.SegmentsFor(experiment.PlanetLabFlowBytes))

func (p *probeSet) transportProbes() {
	const flows = 3000
	boards := make([]*transport.Scoreboard, flows)
	prepare := func() {
		for i := range boards {
			boards[i] = transport.NewScoreboard(flowSegs)
			for seq := int32(0); seq < flowSegs; seq++ {
				boards[i].NoteSend(seq, false)
			}
		}
	}
	ack := &netem.Packet{Kind: netem.KindAck, AckedSeq: -1}

	// In order: every ACK advances the cumulative point by one segment.
	p.out["transport.scoreboard_update_ns"] = perOp(flows*int(flowSegs), prepare, func() {
		for _, sb := range boards {
			for cum := int32(1); cum <= flowSegs; cum++ {
				ack.CumAck = cum
				sb.Update(ack)
			}
		}
	})

	// Holes: each ACK covers the previous window's holes cumulatively and
	// selectively acknowledges three blocks of the next eight segments,
	// leaving three holes; then the sender asks for the next lost segment.
	windows := int(flowSegs) / 8
	ack.NumSACK = 3
	p.out["transport.scoreboard_sack_update_ns"] = perOp(flows*windows, prepare, func() {
		for _, sb := range boards {
			for w := 0; w < windows; w++ {
				base := int32(w * 8)
				ack.CumAck = base
				ack.SACK[0] = netem.SeqRange{Lo: base + 1, Hi: base + 2}
				ack.SACK[1] = netem.SeqRange{Lo: base + 3, Hi: base + 4}
				ack.SACK[2] = netem.SeqRange{Lo: base + 5, Hi: base + 8}
				sb.Update(ack)
				if sb.NextLost(base, 3, 255) != base {
					panic("probe: scoreboard did not deem the first hole lost")
				}
			}
		}
	})
	ack.NumSACK = 0

	// An honest in-order ACK through the validator: Check, then the
	// Update that moves the scoreboard, then Commit. The receipt proofs
	// are folded beforehand, as the receiver would hold them.
	var val transport.AckValidator
	val.Init(7)
	proofs := make([]uint64, flowSegs+1)
	for seq := int32(0); seq < flowSegs; seq++ {
		proofs[seq+1] = proofs[seq] ^ val.SegNonce(seq)
	}
	p.out["transport.validate_check_ns"] = perOp(flows*int(flowSegs), prepare, func() {
		for _, sb := range boards {
			val.Init(7)
			for cum := int32(1); cum <= flowSegs; cum++ {
				ack.CumAck, ack.RecvTotal, ack.Nonce = cum, cum, proofs[cum]
				if val.Check(sb, ack, int64(flowSegs)) != transport.MisbehaviorNone {
					panic("probe: honest ACK flagged")
				}
				sb.Update(ack)
				val.Commit(sb)
			}
		}
	})

	const m = 20_000
	ps := experiment.NewPathSim(probeSeed, defaultPath)
	inst := scheme.MustNew(scheme.Halfback)
	p.out["transport.new_conn_us"] = us(perOp(m, nil, func() {
		for i := 0; i < m; i++ {
			sink = transport.NewConn(netem.FlowID(i), ps.Server, ps.Client,
				experiment.PlanetLabFlowBytes, ps.Opts, inst.Make, nil)
		}
	}))
}

// ccProbes runs, per evaluated scheme, one lossless 100 KB download on
// the default path. The event count is exact and must repeat.
func (p *probeSet) ccProbes() error {
	const m = 300
	for _, name := range scheme.Evaluated() {
		var events uint64
		sims := make([]*experiment.PathSim, m)
		d := perOp(m, func() {
			for i := range sims {
				sims[i] = experiment.NewPathSim(probeSeed, defaultPath)
			}
		}, func() {
			for _, ps := range sims {
				st := ps.FetchOnce(scheme.MustNew(name), experiment.PlanetLabFlowBytes, 120*sim.Second)
				if !st.Completed {
					panic("probe: lossless flow did not complete")
				}
			}
		})
		for _, ps := range sims {
			if events == 0 {
				events = ps.Sched.Processed
			} else if ps.Sched.Processed != events {
				return fmt.Errorf("cc.%s.flow_events does not repeat: %d vs %d", name, ps.Sched.Processed, events)
			}
		}
		p.out["cc."+name+".flow_us"] = us(d)
		p.out["cc."+name+".flow_events"] = float64(events)
	}
	return nil
}

// experimentProbes replicates RunPlanetLab's per-cell program over 200
// paths × 6 schemes with public calls, timing construction and download
// separately, and checks the replica against RunPlanetLab itself by
// executed-event count.
func (p *probeSet) experimentProbes() error {
	const pairs = 200
	schemes := []string{
		scheme.Halfback, scheme.JumpStart, scheme.TCP10,
		scheme.Reactive, scheme.TCP, scheme.Proactive,
	}
	specs := workload.PlanetLabPopulation(sim.NewRand(probeSeed).ForkNamed("paths"), pairs)
	cells := pairs * len(schemes)
	var build, fetch []float64
	var events uint64
	for b := 0; b < probeBatches; b++ {
		var tBuild, tFetch time.Duration
		ev0 := sim.ProcessedTotal()
		for pi, spec := range specs {
			for si, name := range schemes {
				t0 := time.Now()
				ps := experiment.NewPathSim(probeSeed^uint64(pi*131+si+7), spec.ToConfig())
				t1 := time.Now()
				ps.FetchOnce(scheme.MustNew(name), experiment.PlanetLabFlowBytes, 120*sim.Second)
				tBuild += t1.Sub(t0)
				tFetch += time.Since(t1)
			}
		}
		events = sim.ProcessedTotal() - ev0
		build = append(build, float64(tBuild)/float64(cells))
		fetch = append(fetch, float64(tFetch)/float64(cells))
	}
	ev0 := sim.ProcessedTotal()
	// 0.077 × 2600 pairs truncates to exactly 200.
	experiment.RunPlanetLab(probeSeed, experiment.Scale{Trials: 0.077, Horizon: 1, Workers: 1})
	if want := sim.ProcessedTotal() - ev0; events != want {
		return fmt.Errorf("experiment probe replica executed %d events, RunPlanetLab %d: the replica no longer matches the exhibit", events, want)
	}
	b, f := fastest(build), fastest(fetch)
	p.out["experiment.new_pathsim_us"] = b / 1e3
	p.out["experiment.pathsim_fetch_us"] = f / 1e3
	p.out["experiment.setup_share"] = b / (b + f)
	_, bytes := allocsPerOp(len(specs), func() {
		for _, spec := range specs {
			sink = experiment.NewPathSim(probeSeed, spec.ToConfig())
		}
	})
	p.out["experiment.new_pathsim_kb"] = bytes / 1024

	const m = 1000
	cfg := netem.DumbbellConfig{Pairs: 16}.Defaulted()
	p.out["experiment.new_dumbbellsim_us"] = us(perOp(m, nil, func() {
		for i := 0; i < m; i++ {
			sink = experiment.NewDumbbellSim(probeSeed, cfg)
		}
	}))
	return nil
}

func (p *probeSet) workloadProbes() {
	const m = 20
	rng := sim.NewRand(probeSeed)
	p.out["workload.planetlab_pop_ms"] = ms(perOp(m, nil, func() {
		for i := 0; i < m; i++ {
			sink = workload.PlanetLabPopulation(rng.Fork(), experiment.PlanetLabPairs)
		}
	}))
	// One capacity cell's arrival schedule: 100 KB flows at 50 % of
	// 15 Mbit/s for 120 s.
	dist := workload.Fixed{Bytes: experiment.PlanetLabFlowBytes}
	ia := workload.MeanInterarrivalFor(dist.Mean(), 0.5, 15*netem.Mbps)
	p.out["workload.poisson_arrivals_ms"] = ms(perOp(m*10, nil, func() {
		for i := 0; i < m*10; i++ {
			sink = workload.PoissonArrivals(rng.Fork(), dist, ia, 120*sim.Second)
		}
	}))
	// A memo hit still copies the population out.
	key := sim.NewRand(probeSeed).ForkNamed("memo-probe")
	state := *key
	workload.PlanetLabPopulationCached(key, experiment.PlanetLabPairs)
	p.out["workload.memo_hit_us"] = us(perOp(m*50, nil, func() {
		for i := 0; i < m*50; i++ {
			fork := state
			sink = workload.PlanetLabPopulationCached(&fork, experiment.PlanetLabPairs)
		}
	}))
}

func (p *probeSet) metricsProbes() {
	const samples = 15_600 // one planetlab_cold exhibit's worth of FCTs
	rng := sim.NewRand(probeSeed)
	xs := make([]float64, samples)
	for i := range xs {
		xs[i] = rng.Exp(400)
	}
	const m = 20
	p.out["metrics.summarize_ms"] = ms(perOp(m, nil, func() {
		for i := 0; i < m; i++ {
			s := metrics.Summarize(xs)
			sink = s
			sink = metrics.SampleCDF(metrics.CDF(xs), 21)
			sink = metrics.SampleCDF(metrics.CCDF(xs), 21)
		}
	}))
	t := metrics.NewTable("probe", "scheme", "a", "b", "c", "d", "e")
	for i := 0; i < 1000; i++ {
		t.AddRow("Halfback", float64(i)*1.5, float64(i)/7, i, float64(i)*1e3, float64(i)/1e3)
	}
	p.out["metrics.table_render_ms"] = ms(perOp(m, nil, func() {
		for i := 0; i < m; i++ {
			t.WriteTo(io.Discard)
		}
	}))
}

func (p *probeSet) fleetProbes() error {
	const cells = 20_000
	for _, workers := range []int{1, 2} {
		p.out[fmt.Sprintf("fleet.map_cell_us_w%d", workers)] = us(perOp(cells, nil, func() {
			out, err := fleet.MapOpts(fleet.Options{Workers: workers}, cells,
				func(i, _ int) (int, error) { return i, nil })
			if err != nil {
				panic(err)
			}
			sink = out
		}))
	}

	// One append is one write(2) plus one fsync, on the filesystem the
	// journaled workloads use. 700 bytes is a gob'd PlanetLab cell.
	const appends = 400
	payload := make([]byte, 700)
	path := filepath.Join(p.h.runDir, "probe.journal")
	var j *fleet.Journal
	var err error
	batch := 0
	d := perOp(appends, func() {
		if j != nil {
			j.Close()
		}
		os.Remove(path)
		j, err = fleet.CreateJournal(path, fleet.JournalMeta{Tool: "benchmark"})
		batch++
	}, func() {
		for i := 0; err == nil && i < appends; i++ {
			err = j.AppendCellData(uint32(batch), uint32(i), payload)
		}
	})
	if j != nil {
		j.Close()
	}
	os.Remove(path)
	if err != nil {
		return fmt.Errorf("journal append probe: %w", err)
	}
	p.out["fleet.journal_append_us"] = us(d)
	return nil
}

// distProbes wires an in-process worker on a loopback port to a
// coordinator, as the dist package's own tests do, and times connection
// set-up and the round trip of a cell that does nothing.
func (p *probeSet) distProbes() error {
	const cells = 2000
	meta := fleet.JournalMeta{Tool: "benchmark", Seed: probeSeed}
	program := func(ctx context.Context, _ fleet.JournalMeta, run *fleet.Run) error {
		_, err := fleet.MapOpts(fleet.Options{Ctx: ctx, Workers: 2, Run: run}, cells,
			func(i, _ int) (int, error) { return i, nil })
		return err
	}
	var connects []float64
	var rtt float64
	for b := 0; b < probeBatches; b++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w := dist.NewWorker(dist.WorkerOptions{Start: program})
		served := make(chan struct{})
		go func() {
			defer close(served)
			w.Serve(lis)
		}()
		start := time.Now()
		coord, err := dist.Connect([]string{lis.Addr().String()}, nil, meta, dist.Options{SlotsPerWorker: 1})
		connects = append(connects, float64(time.Since(start)))
		if err == nil && b == probeBatches-1 {
			start = time.Now()
			for i := 0; err == nil && i < cells; i++ {
				_, err = coord.DispatchCell(0, uint32(i), "")
			}
			rtt = float64(time.Since(start)) / cells
			coord.SweepDone(0)
		}
		if coord != nil {
			coord.Close()
		}
		w.Stop()
		<-served
		if err != nil {
			return fmt.Errorf("dist probe: %w", err)
		}
	}
	p.out["fleet.dist.connect_ms"] = fastest(connects) / 1e6
	p.out["fleet.dist.cell_rtt_us"] = us(rtt)
	return nil
}
