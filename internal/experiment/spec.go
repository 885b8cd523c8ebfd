package experiment

import (
	"cmp"
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
// rather than code: the sweep its tables read and the tables. A sweep is
// the grid of independent cells one fleet.MapOpts call runs: the spec's
// own Plan, or another spec's it reads (Fig. 1 reads Fig. 12's grid,
// Figs. 5, 7 and 8 read Fig. 6's). One runner, runSweep, makes every
// sweep.
type Spec struct {
	ID, Title string
	// Plan does the sweep's serial, deterministic set-up (populations,
	// arrival schedules, the web corpus) and returns its axes, whose
	// product in row-major order is the cell grid, and the cell function
	// that runs the universe at one point of the grid (at holds the
	// point's index along each axis). A curve sweep's first axis is the
	// curves its readers ask for; other sweeps get none.
	Plan func(seed uint64, sc Scale, curves []string) ([]Axis, func(at []int) (fleet.Row, error))
	// Degraded sweeps keep failed cells: their rows are nil and Grid.Errs
	// says why, so the tables can render them as FAILED(class) rows. Any
	// other sweep panics with the labelled aggregate of its failed cells
	// once the rest have run.
	Degraded bool
	// Tables renders the grid. It runs only when the exhibit renders,
	// never on a worker or in a repro, where every row is nil.
	Tables func(*Grid) []*metrics.Table

	reads *Spec // the spec whose sweep the tables read, if not this one's
	// curves are the labels on a curve sweep's first axis the tables
	// read, in their order. A curve's cells depend on their own labels
	// only, so any union of curves holds the same rows.
	curves []string
}

// Grid is one run of a spec: a row per cell in row-major order of the
// axes and, for a degraded spec, each cell's error (nil for a cell that
// completed).
type Grid struct {
	Axes   []Axis
	Rows   []fleet.Row
	Errs   []error
	spec   *Spec
	curves []string // a program's union of the curves its readers read
	failed any      // what making the sweep panicked with
}

// Run makes the spec's sweep on its own.
func (s *Spec) Run(seed uint64, sc Scale) *Grid { return newProgram(s).read(s, seed, sc) }

// Tables renders the grid with its spec's tables.
func (g *Grid) Tables() []*metrics.Table { return g.spec.Tables(g) }

// program is one run of exhibits that share sweeps: per sweep, the
// union of its readers' curves in first-use order, then the grid its
// first reader makes, kept for the rest of the run.
type program map[*Spec]*Grid

func newProgram(specs ...*Spec) program {
	p := program{}
	for _, s := range specs {
		sw := cmp.Or(s.reads, s)
		if p[sw] == nil {
			p[sw] = &Grid{}
		}
		for _, c := range s.curves {
			if !slices.Contains(p[sw].curves, c) {
				p[sw].curves = append(p[sw].curves, c)
			}
		}
	}
	return p
}

// read returns s's view of its sweep: s's curves, in s's order, on the
// first axis. The first reader makes the sweep, whose cells carry its ID;
// a sweep that panicked panics every reader.
func (p program) read(s *Spec, seed uint64, sc Scale) *Grid {
	sw := cmp.Or(s.reads, s)
	g := p[sw]
	if g.Axes == nil && g.failed == nil {
		defer func() {
			if g.failed = recover(); g.failed != nil {
				panic(g.failed)
			}
		}()
		axes, cell := sw.Plan(seed, sc, g.curves)
		g.Rows, g.Errs = runSweep(sc, s.ID, axes, sw.Degraded, cell)
		g.Axes = axes
	}
	if g.failed != nil {
		panic(g.failed)
	}
	v := *g
	v.spec = s
	if s.curves != nil {
		v.Axes, v.Rows = append([]Axis{{g.Axes[0].Name, s.curves}}, g.Axes[1:]...), nil
		per := len(g.Rows) / len(g.Axes[0].Labels)
		for _, c := range s.curves {
			i := slices.Index(g.Axes[0].Labels, c) * per
			v.Rows = append(v.Rows, g.Rows[i:i+per]...)
		}
	}
	return &v
}

// render makes the sweeps specs read, then renders their tables in turn.
func (p program) render(specs []*Spec, seed uint64, sc Scale) Result {
	grids := make([]*Grid, len(specs))
	for i, s := range specs {
		grids[i] = p.read(s, seed, sc)
	}
	return render(func() (tabs []*metrics.Table) {
		for _, g := range grids {
			tabs = append(tabs, g.Tables()...)
		}
		return tabs
	})
}

// entry is the registry entry of an exhibit of specs.
func entry(specs ...*Spec) Entry {
	return Entry{ID: specs[0].ID, Title: specs[0].Title, specs: specs,
		Run: func(seed uint64, sc Scale) Result { return newProgram(specs...).render(specs, seed, sc) }}
}

// Program returns entries as one run of a program: run in turn with one
// seed and scale, they render what their own Runs render but make each
// sweep once, at its first reader (Figs. 1, 12, 17 and ext share one
// capacity sweep). A run's workers and resumes run the same Program.
func Program(entries []Entry) []Entry {
	var specs []*Spec
	for _, e := range entries {
		specs = append(specs, e.specs...)
	}
	p, out := newProgram(specs...), slices.Clone(entries)
	for i, e := range out {
		if e.specs != nil {
			out[i].Run = func(seed uint64, sc Scale) Result { return p.render(e.specs, seed, sc) }
		}
	}
	return out
}

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
// journal and -repro address a cell by. A cell that fails or
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
// error reports and journal failure records.
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
