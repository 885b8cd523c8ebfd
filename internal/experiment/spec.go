package experiment

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
)

// Axis is one named dimension of a sweep: the sweep has one cell per
// label along it.
type Axis struct {
	Name   string
	Labels []string
}

// Spec describes a swept exhibit as data, the way a scenario is a value
// rather than code: the serial set-up that yields its cell grid, and the
// tables it renders from the grid. One runner, Run, executes every spec.
type Spec struct {
	ID, Title string
	// Plan does the exhibit's serial, deterministic set-up (populations,
	// arrival schedules, the web corpus) and returns the sweep's axes,
	// whose product in row-major order is the cell grid, and the cell
	// function that runs the universe at one point of the grid (at holds
	// the point's index along each axis).
	Plan func(seed uint64, sc Scale) ([]Axis, func(at []int) (fleet.Row, error))
	// Degraded sweeps keep failed cells: their rows are nil and Grid.Errs
	// says why, so the tables can render them as FAILED(class) rows. Any
	// other sweep panics with the labelled aggregate of its failed cells
	// once the rest have run.
	Degraded bool
	// Tables renders the grid. It runs only when the exhibit renders,
	// never on a worker or in a repro, where every row is nil.
	Tables func(*Grid) []*metrics.Table
}

// Grid is one run of a spec: a row per cell in row-major order of the
// axes and, for a degraded spec, each cell's error (nil for a cell that
// completed).
type Grid struct {
	Axes []Axis
	Rows []fleet.Row
	Errs []error
	spec *Spec
}

// Run plans the spec's sweep and executes it.
func (s *Spec) Run(seed uint64, sc Scale) *Grid {
	axes, cell := s.Plan(seed, sc)
	g := &Grid{Axes: axes, spec: s}
	g.Rows, g.Errs = runSweep(sc, s.ID, axes, s.Degraded, cell)
	return g
}

// entry is the spec's registry entry.
func (s *Spec) entry() Entry {
	return Entry{s.ID, s.Title, func(seed uint64, sc Scale) Result { return s.Run(seed, sc) }}
}

// Tables renders the grid with its spec's tables.
func (g *Grid) Tables() []*metrics.Table { return g.spec.Tables(g) }

// At returns the row of the cell with the given label on each axis, in
// axis order, or nil when the grid has no such cell.
func (g *Grid) At(labels ...string) fleet.Row {
	if len(labels) != len(g.Axes) {
		return nil
	}
	i := 0
	for k, a := range g.Axes {
		j := slices.Index(a.Labels, labels[k])
		if j < 0 {
			return nil
		}
		i = i*len(a.Labels) + j
	}
	return g.Rows[i]
}

// Each calls fn for every cell in row-major order with the cell's index
// along each axis.
func (g *Grid) Each(fn func(at []int, row fleet.Row)) {
	at := make([]int, len(g.Axes))
	for _, row := range g.Rows {
		fn(at, row)
		advance(at, g.Axes)
	}
}

// advance steps at to the next cell in row-major order: the last axis
// varies fastest.
func advance(at []int, axes []Axis) {
	for k := len(at) - 1; k >= 0; k-- {
		if at[k]++; at[k] < len(axes[k].Labels) {
			return
		}
		at[k] = 0
	}
}

// runSweep fans one universe per cell of the axes' product out across
// sc.Workers goroutines via the fleet engine and returns their results in
// row-major order, so every sweep renders identically whatever the worker
// count. Sweeps are numbered in the order they are made, which is what a
// journal or a repro bundle addresses a cell by. A cell that fails or
// panics becomes a job error labelled with its point on the axes while
// the remaining cells still run; then a degraded sweep returns the errors
// index-aligned with the cells (a failed cell holds its zero value), and
// any other sweep panics with the aggregate, so a broken cell cannot
// silently produce a truncated exhibit. A worker or a repro run gets zero
// values back, so an exhibit reads its cells only when it renders.
func runSweep[T any](sc Scale, id string, axes []Axis, degraded bool, cell func(at []int) (T, error)) ([]T, []error) {
	n := 1
	for _, a := range axes {
		n *= len(a.Labels)
	}
	// Every cell's point, laid out once per sweep so that dispatching a
	// cell allocates nothing.
	k := len(axes)
	points := make([]int, n*k)
	for i := k; i < len(points); i += k {
		copy(points[i:i+k], points[i-k:i])
		advance(points[i:i+k], axes)
	}
	point := func(i int) []int { return points[i*k : (i+1)*k : (i+1)*k] }
	out, err := fleet.MapOpts(fleet.Options{
		Ctx: sc.Ctx, Workers: sc.Workers, Run: sc.Run,
		Label: func(i int) string { return cellLabel(id, axes, point(i)) },
	}, n, func(i, _ int) (T, error) { return cell(point(i)) })
	if !degraded {
		if err != nil {
			panic(err)
		}
		return out, nil
	}
	errs := make([]error, n)
	for _, je := range fleet.JobErrors(err) {
		errs[je.Index] = je
	}
	return out, errs
}

// cellLabel names a cell by its exhibit and its label on every axis, for
// error reports, journal failure records and repro bundles.
func cellLabel(id string, axes []Axis, at []int) string {
	label := id
	for k, a := range axes {
		label += " " + a.Name + "=" + a.Labels[at[k]]
	}
	return label
}

// labels makes an axis's labels, one per value.
func labels[T any](xs []T, label func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = label(x)
	}
	return out
}

// pct labels a utilization in whole percent.
func pct(u float64) string { return fmt.Sprintf("%.0f%%", u*100) }

// indexLabels labels an axis of n interchangeable draws (paths, servers,
// trials) 0…n−1. The labels share one backing string, so a 2,600-pair
// campaign does not allocate 2,600 of them.
func indexLabels(n int) []string {
	var b []byte
	for i := range n {
		b = strconv.AppendInt(append(b, ' '), int64(i), 10)
	}
	return strings.Fields(string(b))
}

// render is an exhibit whose tables need no sweep of its own to be read
// (Fig. 2, Table 1), or that renders several specs' grids in turn.
type render func() []*metrics.Table

// Tables renders the exhibit.
func (r render) Tables() []*metrics.Table { return r() }
