package experiment

import (
	"fmt"

	"halfback/internal/fleet"
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
//
// Rows holds one summary row per (discipline, scheme), discipline-major.
type AQMResult struct {
	Rows []fleet.Row
}

const aqmBufferBytes = 600_000 // deliberately bloated

func aqmSchemes() []string {
	return []string{scheme.TCP, scheme.TCP10, scheme.JumpStart, scheme.Halfback}
}

func aqmDisciplines() []netem.QueueDiscipline {
	return []netem.QueueDiscipline{netem.DropTail, netem.CoDel, netem.RED}
}

// AQM runs the grid, one universe per (discipline, scheme) cell.
func AQM(seed uint64, sc Scale) *AQMResult {
	horizon := sc.horizon(bufferbloatHorizon)
	discs := aqmDisciplines()
	schemes := aqmSchemes()
	rows := grid(sc, len(discs), len(schemes), func(di, si int) string {
		return fmt.Sprintf("aqm %s %s", schemes[si], discs[di])
	}, func(di, si int) fleet.Row {
		disc := discs[di]
		return runBufferbloatCell(seed^hashString("aqm"+schemes[si])^uint64(disc),
			netem.DumbbellConfig{Pairs: 4, BufferBytes: aqmBufferBytes},
			func(s *DumbbellSim) {
				s.D.Bottleneck.Discipline = disc
				s.D.Reverse.Discipline = disc
			}, schemes[si], horizon)
	})
	return &AQMResult{Rows: rows}
}

// Cell returns the (scheme, discipline) row, for tests.
func (r *AQMResult) Cell(schemeName, disc string) (fleet.Row, bool) {
	discs, schemes := aqmDisciplines(), aqmSchemes()
	for i, row := range r.Rows {
		if schemes[i%len(schemes)] == schemeName && discs[i/len(schemes)].String() == disc {
			return row, true
		}
	}
	return nil, false
}

// Tables renders the grid.
func (r *AQMResult) Tables() []*metrics.Table {
	t := metrics.NewTable("AQM complementarity: short-flow FCT on a bloated (600 KB) bottleneck",
		"scheme", "discipline", "mean_fct_ms", "mean_norm_retx", "completed")
	discs, schemes := aqmDisciplines(), aqmSchemes()
	for i, row := range r.Rows {
		t.AddRow(schemes[i%len(schemes)], discs[i/len(schemes)].String(),
			row[colMeanFCT], row[colMeanRetx], int(row[colCompleted]))
	}
	return []*metrics.Table{t}
}
