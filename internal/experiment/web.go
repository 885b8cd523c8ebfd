package experiment

import (
	"fmt"

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

func fig16Schemes() []string {
	return []string{scheme.JumpStart, scheme.Halfback, scheme.TCP, scheme.TCP10}
}

// Columns of a Fig. 16 row: one (utilization, scheme) cell.
const (
	colMeanResponse = iota // s
	colP90Response         // s
	colPagesDone
	colPagesRequested
)

// Fig16Result reproduces the web response-time curves: one row per
// (utilization, scheme), utilization-major.
type Fig16Result struct {
	Rows []fleet.Row
}

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

// Fig16 runs the application-level benchmark. The corpus and the
// per-utilization request schedules are built once up front (read-only
// from then on), and every (utilization, scheme) page-load universe
// fans out across sc.Workers goroutines.
func Fig16(seed uint64, sc Scale) *Fig16Result {
	pages := workload.BuildCorpus(seed^0xeb1, webCorpusSize)
	horizon := sc.horizon(fig16Horizon)
	cfg := netem.DumbbellConfig{Pairs: 16}.Defaulted()
	utils := fig16Utils()
	schemes := fig16Schemes()
	schedules := make([][]webRequest, len(utils))
	for i, util := range utils {
		schedules[i] = makeWebSchedule(seed, util, pages, horizon, cfg.BottleneckBps, cfg.Pairs)
	}
	return &Fig16Result{Rows: grid(sc, len(utils), len(schemes), func(ui, si int) string {
		return fmt.Sprintf("fig16 %s @%.0f%%", schemes[si], utils[ui]*100)
	}, func(ui, si int) fleet.Row {
		return runFig16Cell(seed, schemes[si], utils[ui], pages, schedules[ui], horizon)
	})}
}

// pageLoader drives one page request: dispatches object fetches in
// order, at most MaxConcurrentConns outstanding, and records when the
// last object lands.
type pageLoader struct {
	sim   *DumbbellSim
	inst  *scheme.Instance
	page  workload.Page
	pair  int
	start sim.Time

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
		loader := &pageLoader{
			sim: s, inst: inst, page: pages[req.Page],
			pair: req.Pair, start: req.At,
		}
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

// At returns the (scheme, util) row, for tests.
func (r *Fig16Result) At(schemeName string, util float64) (fleet.Row, bool) {
	utils, schemes := fig16Utils(), fig16Schemes()
	for i, row := range r.Rows {
		if schemes[i%len(schemes)] == schemeName && abs(utils[i/len(schemes)]-util) < 1e-9 {
			return row, true
		}
	}
	return nil, false
}

// Tables renders the curves.
func (r *Fig16Result) Tables() []*metrics.Table {
	t := metrics.NewTable("Fig.16 Web page response time vs utilization",
		"scheme", "utilization_%", "mean_response_s", "p90_response_s", "completed", "requested")
	utils, schemes := fig16Utils(), fig16Schemes()
	for i, row := range r.Rows {
		t.AddRow(schemes[i%len(schemes)], utils[i/len(schemes)]*100, row[colMeanResponse], row[colP90Response],
			int(row[colPagesDone]), int(row[colPagesRequested]))
	}
	return []*metrics.Table{t}
}
