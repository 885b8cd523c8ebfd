package experiment

import (
	"fmt"

	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/scheme"
)

// AQMResult is the §6 complementarity exhibit: the paper argues AQM
// (CoDel/PIE) attacks bufferbloat from the router side and is "fully
// complementary" to finishing flows in fewer RTTs — "the improvements
// multiply". This experiment reruns the Fig. 10 bufferbloat scenario
// (one queue-building background TCP flow, periodic short flows) on a
// bloated 600 KB buffer under drop-tail, CoDel and RED, for a
// many-round-trip scheme (TCP) and a few-round-trip scheme (Halfback).
type AQMResult struct {
	Rows []AQMRow
}

// AQMRow is one (scheme, discipline) cell.
type AQMRow struct {
	Scheme     string
	Discipline string
	MeanFCTms  float64
	MeanRetx   float64
	Completed  int
}

const aqmBufferBytes = 600_000 // deliberately bloated

func aqmSchemes() []string {
	return []string{scheme.TCP, scheme.TCP10, scheme.JumpStart, scheme.Halfback}
}

// AQM runs the grid, one universe per (discipline, scheme) cell.
func AQM(seed uint64, sc Scale) *AQMResult {
	horizon := sc.horizon(bufferbloatHorizon)
	discs := []netem.QueueDiscipline{netem.DropTail, netem.CoDel, netem.RED}
	schemes := aqmSchemes()
	rows := grid(sc, len(discs), len(schemes), func(di, si int) string {
		return fmt.Sprintf("aqm %s %s", schemes[si], discs[di])
	}, func(di, si int) AQMRow {
		disc := discs[di]
		row := runBufferbloatCell(seed^hashString("aqm"+schemes[si])^uint64(disc),
			netem.DumbbellConfig{Pairs: 4, BufferBytes: aqmBufferBytes},
			func(s *DumbbellSim) {
				s.D.Bottleneck.Discipline = disc
				s.D.Reverse.Discipline = disc
			}, schemes[si], horizon)
		return AQMRow{Scheme: row.Scheme, Discipline: disc.String(),
			MeanFCTms: row.MeanFCTms, MeanRetx: row.MeanRetx, Completed: row.Completed}
	})
	return &AQMResult{Rows: rows}
}

// Cell returns a row for tests.
func (r *AQMResult) Cell(schemeName, disc string) (AQMRow, bool) {
	for _, row := range r.Rows {
		if row.Scheme == schemeName && row.Discipline == disc {
			return row, true
		}
	}
	return AQMRow{}, false
}

// Tables renders the grid.
func (r *AQMResult) Tables() []*metrics.Table {
	t := metrics.NewTable("AQM complementarity: short-flow FCT on a bloated (600 KB) bottleneck",
		"scheme", "discipline", "mean_fct_ms", "mean_norm_retx", "completed")
	for _, row := range r.Rows {
		t.AddRow(row.Scheme, row.Discipline, row.MeanFCTms, row.MeanRetx, row.Completed)
	}
	return []*metrics.Table{t}
}
