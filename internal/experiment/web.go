package experiment

import (
	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// Fig. 16 configuration (§4.4): clients request the front page of one of
// the 100 most popular sites; all objects are fetched in discovery order
// over at most 6 concurrent connections; page-request interarrival is
// tuned to a target utilization. Response time is the delivery of the
// whole page.
const (
	webCorpusSize = 100
	fig16Horizon  = 300 * sim.Second
)

func fig16Utils() []float64 {
	return []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60}
}

// Columns of a Fig. 16 row: one (utilization, scheme) cell.
const (
	colMeanResponse = iota // s
	colP90Response         // s
	colPagesDone
	colPagesRequested
)

// webRequest is one scheduled page load, shared across schemes so every
// scheme faces the identical request sequence (the same low-variance
// technique §4.3.2 uses for flow arrivals).
type webRequest struct {
	At   sim.Time
	Page int
	Pair int
}

func makeWebSchedule(seed uint64, util float64, pages []workload.Page, horizon sim.Duration, rateBps int64, pairs int) []webRequest {
	rng := sim.NewRand(seed ^ uint64(util*1e4)).ForkNamed("webreq")
	meanPage := workload.MeanPageBytes(pages)
	interarrival := workload.MeanInterarrivalFor(meanPage, util, rateBps)
	var out []webRequest
	t := sim.Time(0).Add(rng.ExpDuration(interarrival))
	for i := 0; t < sim.Time(horizon); i++ {
		out = append(out, webRequest{At: t, Page: rng.Intn(len(pages)), Pair: i % pairs})
		t = t.Add(rng.ExpDuration(interarrival))
	}
	return out
}

// fig16 reproduces the web response-time curves: one row per
// (utilization, scheme). The corpus and the per-utilization request
// schedules are built once up front (read-only from then on), and every
// (utilization, scheme) page-load universe fans out across sc.Workers
// goroutines.
var fig16 = &Spec{ID: "16", Title: "Web page response time",
	Plan: func(seed uint64, sc Scale, _ []string) ([]Axis, func([]int) (fleet.Row, error)) {
		pages := workload.BuildCorpus(seed^0xeb1, webCorpusSize)
		horizon := sc.horizon(fig16Horizon)
		cfg := netem.DumbbellConfig{Pairs: 16}.Defaulted()
		utils := fig16Utils()
		schemes := []string{scheme.JumpStart, scheme.Halfback, scheme.TCP, scheme.TCP10}
		schedules := make([][]webRequest, len(utils))
		for i, util := range utils {
			schedules[i] = makeWebSchedule(seed, util, pages, horizon, cfg.BottleneckBps, cfg.Pairs)
		}
		return []Axis{{"util", labels(utils, pct)}, {"scheme", schemes}}, func(at []int) (fleet.Row, error) {
			return runFig16Cell(seed, schemes[at[1]], utils[at[0]], pages, schedules[at[0]], horizon), nil
		}
	},
	Tables: func(g *Grid) []*metrics.Table {
		t := metrics.NewTable("Fig.16 Web page response time vs utilization",
			"scheme", "utilization_%", "mean_response_s", "p90_response_s", "completed", "requested")
		utils := fig16Utils()
		g.Each(func(at []int, row fleet.Row) {
			t.AddRow(g.Axes[1].Labels[at[1]], utils[at[0]]*100, row[colMeanResponse], row[colP90Response],
				int(row[colPagesDone]), int(row[colPagesRequested]))
		})
		return []*metrics.Table{t}
	},
}

// pageLoader drives one page request: dispatches object fetches in
// order, at most MaxConcurrentConns outstanding, and records when the
// last object lands.
type pageLoader struct {
	sim  *DumbbellSim
	inst *scheme.Instance
	page workload.Page
	pair int

	next      int
	remaining int
	onDone    func(finish sim.Time)
}

// beginPage is the scheduler event that starts a page load; arg is the
// *pageLoader.
func beginPage(now sim.Time, arg any) {
	p := arg.(*pageLoader)
	p.remaining = len(p.page.ObjectBytes)
	// Browsers fetch the base document first; embedded objects are
	// only discovered from its contents, after which up to
	// MaxConcurrentConns fetches proceed in parallel. This ordering
	// also staggers the parallel connections' start times, as it does
	// in a real browser.
	p.dispatch(now)
}

func (p *pageLoader) dispatch(now sim.Time) {
	obj := p.page.ObjectBytes[p.next]
	p.next++
	first := p.next == 1 // this dispatch carries the base document
	p.sim.StartFlowOn(now, p.inst, obj, p.pair, p.sim.Opts, func(st *transport.FlowStats) {
		p.remaining--
		// The completion callback runs when the sender learns the
		// object finished; follow-up fetches dispatch at that instant
		// (st.ReceiverDone is earlier — the data landed before the
		// final ACK returned, and time cannot run backwards).
		if first {
			// Base document parsed: open the parallel connections.
			for i := 0; i < workload.MaxConcurrentConns && p.next < len(p.page.ObjectBytes); i++ {
				p.dispatch(p.sim.Sched.Now())
			}
		} else if p.next < len(p.page.ObjectBytes) {
			p.dispatch(p.sim.Sched.Now())
		}
		if p.remaining == 0 && p.onDone != nil {
			p.onDone(st.ReceiverDone)
		}
	})
}

func runFig16Cell(seed uint64, schemeName string, util float64, pages []workload.Page,
	schedule []webRequest, horizon sim.Duration) fleet.Row {
	cfg := netem.DumbbellConfig{Pairs: 16}.Defaulted()
	s := NewDumbbellSim(seed^hashString("fig16"+schemeName)^uint64(util*1e4), cfg)
	inst := scheme.MustNew(schemeName)

	var responses []float64
	for _, req := range schedule {
		loader := &pageLoader{sim: s, inst: inst, page: pages[req.Page], pair: req.Pair}
		start := req.At
		loader.onDone = func(finish sim.Time) {
			responses = append(responses, finish.Sub(start).Seconds())
		}
		s.Sched.AtFunc(req.At, beginPage, loader)
	}
	s.Run(horizon + 120*sim.Second)

	sum := metrics.Summarize(responses)
	return fleet.Row{sum.Mean, sum.Percentile(90), float64(len(responses)), float64(len(schedule))}
}
