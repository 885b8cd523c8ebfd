package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"halfback/internal/fleet"
)

// serveAll is a worker's side of a distributed sweep: it runs every cell
// for the coordinator, whose results never reach the local grid.
type serveAll struct{ served int }

func (s *serveAll) ServeSweep(_ uint32, n int, run func(cell uint32) *fleet.CellOutcome) error {
	for c := 0; c < n; c++ {
		run(uint32(c))
		s.served++
	}
	return nil
}

// serveOne is a repro's side: it runs one cell of one sweep and keeps
// its outcome, which never reaches the grid either.
type serveOne struct {
	sweep, cell uint32
	outcome     *fleet.CellOutcome
}

func (s *serveOne) ServeSweep(sweep uint32, n int, run func(cell uint32) *fleet.CellOutcome) error {
	if sweep == s.sweep && s.cell < uint32(n) {
		s.outcome = run(s.cell)
	}
	return nil
}

// TestSpecRunner pins the one runner every swept exhibit goes through:
// the row-major cell order journals and -repro address cells by,
// the label accessor, and what a failed cell, a worker and a repro get
// back.
func TestSpecRunner(t *testing.T) {
	axes := []Axis{{"a", []string{"a0", "a1"}}, {"b", []string{"b0", "b1", "b2"}}, {"c", []string{"c0", "c1", "c2", "c3"}}}
	const n = 2 * 3 * 4
	// Each cell's row is its own point, so the grid shows where every
	// cell landed; cells at b1 fail when asked to.
	spec := func(degraded, fail bool) *Spec {
		return &Spec{ID: "t", Degraded: degraded, Plan: func(uint64, Scale, []string) ([]Axis, func([]int) (fleet.Row, error)) {
			return axes, func(at []int) (fleet.Row, error) {
				if fail && at[1] == 1 {
					return nil, errors.New("boom")
				}
				return fleet.Row{float64(at[0]), float64(at[1]), float64(at[2])}, nil
			}
		}}
	}
	// point is the cell at row-major index i, by the i/cols, i%cols
	// indexing of a two-axis grid applied twice.
	point := func(i int) fleet.Row { return fleet.Row{float64(i / 12), float64(i / 4 % 3), float64(i % 4)} }
	repro := &serveOne{sweep: 0, cell: 17}
	worker := &serveAll{}

	for _, tc := range []struct {
		name     string
		degraded bool
		fail     bool
		sc       Scale
		panics   string // substring of the aggregate a failing sweep panics with
		check    func(t *testing.T, g *Grid)
	}{
		{name: "row-major", sc: Scale{Workers: 4}, check: func(t *testing.T, g *Grid) {
			if len(g.Rows) != n || g.Errs != nil {
				t.Fatalf("%d rows, errs %v", len(g.Rows), g.Errs)
			}
			i := 0
			g.Each(func(at []int, row fleet.Row) {
				if want := point(i); !reflect.DeepEqual(row, want) || !reflect.DeepEqual(row, fleet.Row{float64(at[0]), float64(at[1]), float64(at[2])}) {
					t.Errorf("cell %d at %v: row %v, want %v", i, at, row, want)
				}
				i++
			})
			if got := g.At("a1", "b2", "c0"); !reflect.DeepEqual(got, fleet.Row{1, 2, 0}) {
				t.Errorf("At(a1, b2, c0) = %v", got)
			}
			if got := g.At("a1", "b9", "c0"); got != nil {
				t.Errorf("missing label: At = %v, want nil", got)
			}
			if got := g.At("a1", "b2"); got != nil {
				t.Errorf("too few labels: At = %v, want nil", got)
			}
		}},
		{name: "failed cell panics", fail: true, sc: Scale{Workers: 2}, panics: "(t a=a1 b=b1 c=c3): boom"},
		{name: "degraded keeps failed cells", degraded: true, fail: true, sc: Scale{Workers: 2}, check: func(t *testing.T, g *Grid) {
			for i, row := range g.Rows {
				failed := i/4%3 == 1
				if err := g.Errs[i]; failed != (err != nil) || failed != (row == nil) {
					t.Errorf("cell %d: row %v, err %v", i, row, err)
				}
			}
			if err := g.Errs[5]; err == nil || !strings.Contains(err.Error(), "job 5 (t a=a0 b=b1 c=c1): boom") {
				t.Errorf("cell 5's error is %v", err)
			}
		}},
		{name: "worker", sc: Scale{Workers: 2, Run: &fleet.Run{Serve: worker}}, check: func(t *testing.T, g *Grid) {
			for i, row := range g.Rows {
				if row != nil {
					t.Errorf("cell %d reached the worker's grid: %v", i, row)
				}
			}
			if worker.served != n {
				t.Errorf("served %d cells, want %d", worker.served, n)
			}
		}},
		{name: "repro", sc: Scale{Workers: 1, Run: &fleet.Run{Serve: repro}}, check: func(t *testing.T, g *Grid) {
			for i, row := range g.Rows {
				if row != nil {
					t.Errorf("cell %d reached the repro's grid: %v", i, row)
				}
			}
			if res := repro.outcome; res == nil || res.Failed {
				t.Errorf("cell 17's outcome is %+v, want a success", res)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				err, _ := r.(error)
				switch {
				case tc.panics == "" && r != nil:
					t.Fatalf("panicked: %v", r)
				case tc.panics != "" && (err == nil || !strings.Contains(err.Error(), tc.panics)):
					t.Fatalf("panic %v, want one naming %q", r, tc.panics)
				case tc.panics != "" && len(fleet.JobErrors(err)) != 2*4:
					t.Fatalf("aggregate holds %d job errors, want 8", len(fleet.JobErrors(err)))
				}
			}()
			g := spec(tc.degraded, tc.fail).Run(1, tc.sc)
			if tc.panics != "" {
				t.Fatal("a failed cell did not panic the sweep")
			}
			tc.check(t, g)
		})
	}
}
