package experiment

import (
	"strings"
	"testing"

	"halfback/internal/fleet"
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

func TestFig2Structure(t *testing.T) {
	res := Fig2(1, Scale{Trials: 0.05, Horizon: 1})
	if len(res.Rows) != 27 { // 3 distributions × 9 sizes
		t.Fatalf("rows %d", len(res.Rows))
	}
	v, ok := res.TrafficBelow("Internet", 141<<10)
	if !ok {
		t.Fatal("missing Internet/141KB cell")
	}
	if v < 0.2 || v > 0.5 {
		t.Fatalf("Internet traffic below 141KB = %v", v)
	}
	// Monotonicity in size per distribution.
	last := -1.0
	for _, row := range res.Rows {
		if row.Distribution != "Internet" {
			continue
		}
		if row.TrafficCDF < last {
			t.Fatal("traffic CDF must be monotone")
		}
		last = row.TrafficCDF
	}
	if len(res.Tables()) == 0 || res.Tables()[0].NumRows() != 27 {
		t.Fatal("table rendering")
	}
}

func TestTable1Static(t *testing.T) {
	res := Table1(1, Full)
	tabs := res.Tables()
	if len(tabs) != 1 || tabs[0].NumRows() != 10 {
		t.Fatalf("table1 shape: %d tables", len(tabs))
	}
}

func TestFig15Shapes(t *testing.T) {
	res := Fig15(3, tiny)
	if len(res.Panels) != 4 {
		t.Fatalf("panels %d", len(res.Panels))
	}
	opt, ok := res.Panel("Optimal")
	if !ok {
		t.Fatal("optimal panel missing")
	}
	if opt.BackgroundDipMbps != 7.5 {
		t.Fatalf("optimal dip %v", opt.BackgroundDipMbps)
	}
	hb, ok := res.Panel("Halfback")
	if !ok {
		t.Fatal("halfback panel missing")
	}
	if hb.ShortFCTms <= 0 {
		t.Fatal("halfback short flow never finished")
	}
	tcp1, _ := res.Panel("One TCP short flow")
	if !(hb.ShortFCTms < tcp1.ShortFCTms) {
		t.Fatalf("Halfback short (%vms) should beat TCP short (%vms)", hb.ShortFCTms, tcp1.ShortFCTms)
	}
	// The background must keep delivering in every panel.
	for _, p := range res.Panels {
		if len(p.Series) < 2 {
			t.Fatalf("panel %s series", p.Name)
		}
	}
	if len(res.Tables()) != 2 {
		t.Fatal("fig15 tables")
	}
}

// summary is a capacity row holding only what FeasibleCapacity reads.
func summary(meanFCT, completion float64) fleet.Row {
	r := make(fleet.Row, colCompletion+1)
	r[colMeanFCT], r[colCompletion] = meanFCT, completion
	return r
}

func TestCapacitySweepExtraction(t *testing.T) {
	cs := &CapacitySweep{Schemes: []string{"X"}, Utils: []float64{0.05, 0.10, 0.15, 0.20},
		Rows: []fleet.Row{summary(100, 1), summary(150, 1), summary(2000, 1), summary(120, 1)}}
	// Collapse at 0.15 (2000 > max(3×100, 1000)); feasible = 0.10 even
	// though 0.20 recovered (collapse is terminal).
	if got := cs.FeasibleCapacity("X"); got != 0.10 {
		t.Fatalf("feasible %v", got)
	}
	if cs.LowLoadFCT("X") != 100 {
		t.Fatal("low-load FCT")
	}
	if v, ok := cs.MeanFCTAt("X", 0.15); !ok || v != 2000 {
		t.Fatal("MeanFCTAt")
	}
	if _, ok := cs.MeanFCTAt("X", 0.33); ok {
		t.Fatal("missing point must report !ok")
	}
}

func TestCapacityCompletionCollapse(t *testing.T) {
	cs := &CapacitySweep{Schemes: []string{"Y"}, Utils: []float64{0.05, 0.10},
		Rows: []fleet.Row{summary(100, 1), summary(110, 0.5)}}
	if got := cs.FeasibleCapacity("Y"); got != 0.05 {
		t.Fatalf("completion collapse: feasible %v", got)
	}
}

func TestHashStringStable(t *testing.T) {
	if hashString("abc") != hashString("abc") {
		t.Fatal("hash must be stable")
	}
	if hashString("abc") == hashString("abd") {
		t.Fatal("hash should distinguish close strings")
	}
}

func TestFig3Walkthrough(t *testing.T) {
	res := Fig3(1, Full)
	if res.HalfbackStats.Timeouts != 0 {
		t.Fatalf("Halfback must dodge the timeout (got %d)", res.HalfbackStats.Timeouts)
	}
	if res.TCPStats.Timeouts == 0 {
		t.Fatal("TCP must pay the timeout in the Fig. 3 scenario")
	}
	if !(res.HalfbackStats.FCT() < res.TCPStats.FCT()/2) {
		t.Fatalf("Halfback (%v) should finish far ahead of TCP (%v)",
			res.HalfbackStats.FCT(), res.TCPStats.FCT())
	}
	if res.HalfbackSummary.ProactiveSent < 3 {
		t.Fatalf("expected several ROPR copies, got %d", res.HalfbackSummary.ProactiveSent)
	}
	// The trace must show the recovery: the lost segment 8 delivered
	// via a proactive copy.
	if !strings.Contains(res.HalfbackSeq, "d8+") {
		t.Fatal("trace missing the proactive copy of the lost packet")
	}
	if len(res.Tables()) != 3 {
		t.Fatal("fig3 tables")
	}
}

func TestMultihopStructure(t *testing.T) {
	res := Multihop(5, Scale{Trials: 1, Horizon: 0.15})
	if len(res.Rows) != 12 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	hb, ok := res.Cell(scheme.Halfback, 0.30)
	if !ok || hb[colCompleted] == 0 {
		t.Fatalf("halfback cell broken: %v", hb)
	}
	tcp, _ := res.Cell(scheme.TCP, 0.30)
	if !(hb[colMeanFCT] < tcp[colMeanFCT]) {
		t.Errorf("Halfback (%v) should beat TCP (%v) across the chain", hb[colMeanFCT], tcp[colMeanFCT])
	}
}

func TestExtensionsStructure(t *testing.T) {
	res := Extensions(9, Scale{Trials: 1, Horizon: 0.05})
	if len(res.Schemes) != 5 {
		t.Fatal("extension scheme set")
	}
	if _, ok := res.MeanAtSize(scheme.HalfbackIB10, 25<<10); !ok {
		t.Fatal("missing IB10 small-size cell")
	}
	if len(res.Tables()) != 3 {
		t.Fatal("tables")
	}
}
