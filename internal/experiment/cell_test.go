package experiment

import (
	"math"
	"slices"
	"testing"

	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/workload"
)

// realisedLoad is the offered load a built cell's arrivals carry: their
// bytes on the wire over what its bottleneck carries in the horizon.
func realisedLoad(s *DumbbellSim, arrivals [][]workload.Arrival, horizon sim.Duration) float64 {
	var bytes int
	for _, class := range arrivals {
		for _, a := range class {
			bytes += a.Bytes
		}
	}
	return float64(8*bytes) / (float64(s.D.Bottleneck.RateBps) * horizon.Seconds())
}

// TestLoadSweptColumnsRealiseTheirLoad builds, without running, one cell
// per column of the load-swept exhibits at seed 1 and scale 1 and
// recovers the load its schedule offers. A Poisson count of n arrivals
// has relative standard deviation 1/√n, so a column whose realised load
// strays more than 3/√n from its nominal one, n the expected count, has
// a schedule that does not draw the load it names.
func TestLoadSweptColumnsRealiseTheirLoad(t *testing.T) {
	bound := func(name string, util float64, horizon sim.Duration, c *cell) {
		t.Helper()
		s, arrivals := c.build()
		n := util * float64(s.D.Bottleneck.RateBps) * horizon.Seconds() / (8 * PlanetLabFlowBytes)
		got := realisedLoad(s, arrivals, horizon)
		if z := (got/util - 1) * math.Sqrt(n); math.Abs(z) > 3 {
			t.Errorf("%s at %.0f %%: realised load %.4f over %d flows (%.1f expected), z = %.2f",
				name, util*100, got, len(arrivals[0]), n, z)
		}
	}
	for _, util := range capacityUtils() {
		bound("Fig. 12", util, capacityHorizon, capacityCell(1, scheme.Halfback, util, capacityHorizon))
	}
	for _, util := range fig14Utils() {
		bound("Fig. 14", util, fig14Horizon, fig14Cell(1, util, scheme.TCP, false, fig14Horizon))
	}

	// Fig. 13 is pinned, not bounded: its long class expects about ten
	// 25 MB flows per column, so a count-derived tolerance is too wide to
	// flag even the 50 % column, which draws 17 and runs at 81 %. The
	// pins record today's schedule; fixing that schedule (ROADMAP item 1)
	// must replace them with a bound.
	want := []float64{0.385, 0.253, 0.573, 0.444, 0.805, 0.319, 0.863, 0.551, 0.686, 0.468, 0.570, 0.751}
	for i, util := range fig13Utils() {
		s, arrivals := fig13Cell(1, util, scheme.TCP, fig13Horizon, fig13LongBytes).build()
		if got := realisedLoad(s, arrivals, fig13Horizon); math.Abs(got-want[i]) > 0.001 {
			t.Errorf("Fig. 13 at %.0f %%: realised load %.4f over %d short and %d long flows, pinned %.3f",
				util*100, got, len(arrivals[0]), len(arrivals[1]), want[i])
		}
	}
}

// TestColumnCellsShareSchedule checks §4.3.2's rule that every cell of a
// column sees the same schedule of flow arrivals: two cells of one
// column, each with its own seed, draw identical arrivals per class.
func TestColumnCellsShareSchedule(t *testing.T) {
	horizon := Quick.horizon(fig13Horizon)
	for _, pair := range []struct {
		name string
		a, b *cell
	}{
		{"Fig. 13 TCP baseline vs Halfback", fig13Cell(1, 0.5, scheme.TCP, horizon, 2_000_000),
			fig13Cell(1, 0.5, scheme.Halfback, horizon, 2_000_000)},
		{"Fig. 14 all-Halfback vs mixed-Halfback", fig14Cell(1, 0.2, scheme.Halfback, false, horizon),
			fig14Cell(1, 0.2, scheme.Halfback, true, horizon)},
	} {
		if pair.a.seed == pair.b.seed {
			t.Fatalf("%s: the two cells share a seed", pair.name)
		}
		_, a := pair.a.build()
		_, b := pair.b.build()
		for i := range a {
			if len(a[i]) == 0 || !slices.Equal(a[i], b[i]) {
				t.Errorf("%s: class %d draws %d and %d arrivals, not one schedule", pair.name, i, len(a[i]), len(b[i]))
			}
		}
	}

	// The mixed cell alternates in arrival order: the even arrivals run
	// the scheme, the odd ones TCP labelled mixed-TCP.
	s, _ := fig14Cell(1, 0.2, scheme.Halfback, true, horizon).build()
	for j, conn := range s.Conns() {
		if want := []string{scheme.Halfback, "mixed-TCP"}[j%2]; conn.Stats.Scheme != want {
			t.Fatalf("mixed Fig. 14 flow %d is labelled %q, want %q", j, conn.Stats.Scheme, want)
		}
	}
}
