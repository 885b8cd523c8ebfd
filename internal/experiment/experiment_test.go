package experiment

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
	"halfback/internal/sim"
)

// tiny is the smallest useful scale for structural tests.
var tiny = Scale{Trials: 0.01, Horizon: 0.1}

func TestRegistryCompleteAndUnique(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if ids[e.ID] {
			t.Fatalf("duplicate exhibit %q", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
	}
	for _, want := range []string{"1", "2", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "table1"} {
		if !ids[want] {
			t.Fatalf("missing exhibit %q", want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("99"); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("lookup error: %v", err)
	}
	e, err := Lookup("table1")
	if err != nil || e.ID != "table1" {
		t.Fatalf("lookup table1: %v", err)
	}
}

func TestScaleClamping(t *testing.T) {
	sc := Scale{Trials: 0.0001, Horizon: 0.0001}
	if sc.trials(100) != 1 {
		t.Fatal("trials must clamp to ≥1")
	}
	if sc.horizon(10*sim.Second) != sim.Second {
		t.Fatal("horizon must clamp to ≥1s")
	}
	if Full.trials(2600) != 2600 {
		t.Fatal("full scale must be identity")
	}
}

func TestDumbbellSimDeterminism(t *testing.T) {
	runOnce := func() []float64 {
		s := NewDumbbellSim(1234, netem.DumbbellConfig{Pairs: 2})
		inst := scheme.MustNew(scheme.Halfback)
		for i := 0; i < 5; i++ {
			s.StartFlowAt(sim.Time(i)*sim.Time(200*sim.Millisecond), inst, 100_000)
		}
		s.Run(30 * sim.Second)
		var out []float64
		for _, st := range s.Finished {
			out = append(out, st.FCT().Seconds())
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("runs produced %d vs %d flows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give bit-identical results")
		}
	}
}

func TestDumbbellSimCompletionRate(t *testing.T) {
	s := NewDumbbellSim(1, netem.DumbbellConfig{Pairs: 1})
	if s.CompletionRate() != 1 {
		t.Fatal("no flows → rate 1")
	}
	s.StartFlowAt(0, scheme.MustNew(scheme.TCP), 100_000)
	s.StartFlowAt(0, scheme.MustNew(scheme.TCP), 500_000_000) // cannot finish in 2s
	s.Run(2 * sim.Second)
	if got := s.CompletionRate(); got != 0.5 {
		t.Fatalf("completion rate %v, want 0.5", got)
	}
}

func TestPathSimSequentialFetches(t *testing.T) {
	ps := NewPathSim(1, netem.PathConfig{RateBps: 10 * netem.Mbps, RTT: 50 * sim.Millisecond, BufferBytes: 1 << 20})
	// Halfback first: its sender finishes while proactive copies are
	// still on the wire, so the first window ends (by Stop) with events
	// queued. They belong to the second fetch's future, never its past.
	st1 := ps.FetchOnce(scheme.MustNew(scheme.Halfback), 50_000, 60*sim.Second)
	if ps.Sched.Pending() == 0 {
		t.Fatal("test setup: the first fetch left nothing queued")
	}
	start2 := ps.Sched.Now()
	ps.Path.Net.Trace = func(ev netem.TraceEvent) {
		if ev.At < start2 {
			t.Fatalf("second fetch observed a %v event at %v, before its own start %v", ev.Kind, ev.At, start2)
		}
	}
	st2 := ps.FetchOnce(scheme.MustNew(scheme.TCP), 50_000, 60*sim.Second)
	if !st1.Completed || !st2.Completed {
		t.Fatal("fetches did not complete")
	}
	if st2.Start != start2 || !(st2.Start >= st1.SenderDone) {
		t.Fatalf("fetches must be sequential in virtual time: first done %v, second start %v", st1.SenderDone, st2.Start)
	}
}

// runExhibit runs the registry's exhibit id.
func runExhibit(t *testing.T, id string, seed uint64, sc Scale) Result {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(seed, sc)
}

// value reads column col of the first row of tab whose leading cells are
// keys.
func value(t *testing.T, tab *metrics.Table, col string, keys ...string) float64 {
	t.Helper()
	c := slices.Index(tab.Columns, col)
	for i := 0; i < tab.NumRows(); i++ {
		if row := tab.Row(i); slices.Equal(row[:len(keys)], keys) {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("%s: row %v column %s: %v", tab.Title, keys, col, err)
			}
			return v
		}
	}
	t.Fatalf("%s: no row %v", tab.Title, keys)
	return 0
}

func TestFig2Structure(t *testing.T) {
	tabs := runExhibit(t, "2", 1, Scale{Trials: 0.05, Horizon: 1}).Tables()
	if len(tabs) != 1 || tabs[0].NumRows() != 27 { // 3 distributions × 9 sizes
		t.Fatalf("fig2 shape: %d tables", len(tabs))
	}
	if v := value(t, tabs[0], "traffic_cdf", "Internet", strconv.Itoa(141<<10)); v < 0.2 || v > 0.5 {
		t.Fatalf("Internet traffic below 141KB = %v", v)
	}
	// Monotonicity in size per distribution.
	last := -1.0
	for i := 0; i < tabs[0].NumRows(); i++ {
		row := tabs[0].Row(i)
		if row[0] != "Internet" {
			continue
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil || v < last {
			t.Fatalf("traffic CDF must be monotone: %v after %v (%v)", row[2], last, err)
		}
		last = v
	}
}

func TestTable1Static(t *testing.T) {
	tabs := runExhibit(t, "table1", 1, Full).Tables()
	if len(tabs) != 1 || tabs[0].NumRows() != 10 {
		t.Fatalf("table1 shape: %d tables", len(tabs))
	}
}

func TestFig15Shapes(t *testing.T) {
	g := fig15.Run(3, tiny)
	if len(g.Rows) != 3 {
		t.Fatalf("simulated panels %d", len(g.Rows))
	}
	tabs := g.Tables()
	if len(tabs) != 2 || tabs[0].NumRows() != 4 {
		t.Fatal("fig15 tables")
	}
	if dip := value(t, tabs[0], "bg_dip_mbps", "Optimal"); dip != 7.5 {
		t.Fatalf("optimal dip %v", dip)
	}
	hb, tcp1 := value(t, tabs[0], "short_fct_ms", "Halfback"), value(t, tabs[0], "short_fct_ms", "One TCP short flow")
	if hb <= 0 {
		t.Fatal("halfback short flow never finished")
	}
	if !(hb < tcp1) {
		t.Fatalf("Halfback short (%vms) should beat TCP short (%vms)", hb, tcp1)
	}
	// The background must keep delivering in every panel.
	for i, r := range append(g.Rows, fig15Optimal()) {
		if len(r) < f15Series+2*fig15Buckets {
			t.Fatalf("panel %d series", i)
		}
	}
}

// summary is a capacity row holding only what feasiblePoints reads.
func summary(meanFCT, completion float64) fleet.Row {
	r := make(fleet.Row, colCompletion+1)
	r[colMeanFCT], r[colCompletion] = meanFCT, completion
	return r
}

func TestCapacitySweepExtraction(t *testing.T) {
	g := &Grid{
		Axes: []Axis{{"scheme", []string{"X"}}, {"util", []string{"5%", "10%", "15%", "20%"}}},
		Rows: []fleet.Row{summary(100, 1), summary(150, 1), summary(2000, 1), summary(120, 1)},
	}
	// Collapse at 15% (2000 > max(3×100, 1000)); feasible = 10% even
	// though 20% recovered (collapse is terminal). The low-load FCT is
	// the 5% point's.
	if got := feasibleTable(g, "", "low_load_fct_ms").Row(0); !slices.Equal(got, []string{"X", "10.0", "100.0"}) {
		t.Fatalf("feasible capacity row %v", got)
	}
}

func TestCapacityCompletionCollapse(t *testing.T) {
	if got := feasiblePoints([]fleet.Row{summary(100, 1), summary(110, 0.5)}); got != 1 {
		t.Fatalf("completion collapse: %d feasible points", got)
	}
}

func TestFig3Walkthrough(t *testing.T) {
	g := fig3.Run(1, Full)
	hb, tcp := g.At(scheme.Halfback), g.At(scheme.TCP)
	if hb[f3Timeouts] != 0 {
		t.Fatalf("Halfback must dodge the timeout (got %v)", hb[f3Timeouts])
	}
	if tcp[f3Timeouts] == 0 {
		t.Fatal("TCP must pay the timeout in the Fig. 3 scenario")
	}
	if !(hb[f3FCT] < tcp[f3FCT]/2) {
		t.Fatalf("Halfback (%vms) should finish far ahead of TCP (%vms)", hb[f3FCT], tcp[f3FCT])
	}
	if sum := fig3Trace(hb).Summarize(); sum.ProactiveSent < 3 {
		t.Fatalf("expected several ROPR copies, got %d", sum.ProactiveSent)
	}
	// The trace must show the recovery: the lost segment 8 delivered
	// via a proactive copy.
	tabs := g.Tables()
	if len(tabs) != 3 {
		t.Fatal("fig3 tables")
	}
	var seq strings.Builder
	tabs[2].WriteTo(&seq)
	if !strings.Contains(seq.String(), "d8+") {
		t.Fatal("trace missing the proactive copy of the lost packet")
	}
}

func TestMultihopStructure(t *testing.T) {
	g := multihop.Run(5, Scale{Trials: 1, Horizon: 0.15})
	if len(g.Rows) != 12 {
		t.Fatalf("rows %d", len(g.Rows))
	}
	hb := g.At("30%", scheme.Halfback)
	if hb == nil || hb[colCompleted] == 0 {
		t.Fatalf("halfback cell broken: %v", hb)
	}
	if tcp := g.At("30%", scheme.TCP); !(hb[colMeanFCT] < tcp[colMeanFCT]) {
		t.Errorf("Halfback (%v) should beat TCP (%v) across the chain", hb[colMeanFCT], tcp[colMeanFCT])
	}
}

func TestExtensionsStructure(t *testing.T) {
	tabs := runExhibit(t, "ext", 9, Scale{Trials: 1, Horizon: 0.05}).Tables()
	if len(tabs) != 3 || tabs[1].NumRows() != 5 {
		t.Fatalf("tables: %d", len(tabs))
	}
	value(t, tabs[0], "mean_fct_ms", scheme.HalfbackIB10, "25") // the IB10 small-size cell exists
}
