package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/sim"
)

// benchExhibit is one exhibit's measurement in the benchmark JSON.
type benchExhibit struct {
	ID           string  `json:"id"`
	Title        string  `json:"title"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakPending is the largest number of simultaneously pending
	// events any single universe reached, and TimerCancels the number
	// of Timer.Stop calls that prevented a firing (RTO/pacer/delayed-ACK
	// resets) — together they track event-structure changes that ns/op
	// alone cannot see. Additive fields: absent in older baselines.
	PeakPending  uint64 `json:"peak_pending,omitempty"`
	TimerCancels uint64 `json:"timer_cancels,omitempty"`
}

// benchFile is the top-level benchmark JSON document.
type benchFile struct {
	Date       string         `json:"date"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	Workers    int            `json:"workers"`
	Exhibits   []benchExhibit `json:"exhibits"`
}

// runBench measures each exhibit once — wall time, allocations
// (process-wide MemStats deltas around the run) and scheduler events —
// and writes the benchmark JSON.
func runBench(ctx context.Context, entries []experiment.Entry, seed uint64, sc experiment.Scale, scale float64, outPath string) (int, error) {
	doc := benchFile{
		Date:       time.Now().Format("2006-01-02"),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Scale:      scale,
		Workers:    sc.Workers,
	}
	if outPath == "" {
		outPath = "BENCH_" + doc.Date + ".json"
	}
	var m0, m1 runtime.MemStats
	for _, e := range entries {
		if ctx.Err() != nil {
			return 130, nil
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ev0 := sim.ProcessedTotal()
		tc0 := sim.TimerCancelsTotal()
		sim.TakePeakPending() // reset the high-water mark for this exhibit
		start := time.Now()
		if _, err := runExhibit(e, seed, sc); err != nil {
			if ctx.Err() != nil {
				return 130, nil
			}
			return 1, fmt.Errorf("exhibit %s: %w", e.ID, err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		events := sim.ProcessedTotal() - ev0
		bx := benchExhibit{
			ID:           e.ID,
			Title:        e.Title,
			NsPerOp:      elapsed.Nanoseconds(),
			AllocsPerOp:  m1.Mallocs - m0.Mallocs,
			BytesPerOp:   m1.TotalAlloc - m0.TotalAlloc,
			Events:       events,
			PeakPending:  sim.TakePeakPending(),
			TimerCancels: sim.TimerCancelsTotal() - tc0,
		}
		if s := elapsed.Seconds(); s > 0 {
			bx.EventsPerSec = float64(events) / s
		}
		doc.Exhibits = append(doc.Exhibits, bx)
		fmt.Fprintf(os.Stderr, "bench %-7s %12d ns/op %10d allocs/op %12.0f events/sec\n",
			e.ID, bx.NsPerOp, bx.AllocsPerOp, bx.EventsPerSec)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 1, err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s (%d exhibits)\n", outPath, len(doc.Exhibits))
	return 0, nil
}
