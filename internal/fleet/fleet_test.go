package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"halfback/internal/sim"
)

func TestWorkersNormalize(t *testing.T) {
	if got := workers(0); got < 1 {
		t.Fatalf("workers(0) = %d, want ≥1", got)
	}
	if got := workers(-3); got < 1 {
		t.Fatalf("workers(-3) = %d, want ≥1", got)
	}
	if got := workers(5); got != 5 {
		t.Fatalf("workers(5) = %d", got)
	}
}

func TestMapOrderPreservedAcrossWorkerCounts(t *testing.T) {
	// Each job does seed-derived work; results must land at their index
	// for every worker count, including the serial path.
	job := func(i, _ int) (uint64, error) {
		r := sim.NewRand(sim.ChildSeed(99, uint64(i)))
		var acc uint64
		for k := 0; k < 100+i%7; k++ {
			acc ^= r.Uint64()
		}
		return acc, nil
	}
	want, err := MapOpts(Options{Workers: 1}, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8, 64} {
		got, err := MapOpts(Options{Workers: w}, 64, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := MapOpts(Options{Workers: 8}, 0, func(i, _ int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v %v", out, err)
	}
	out, err = MapOpts(Options{Workers: 8}, 1, func(i, _ int) (int, error) { return 41 + i, nil })
	if err != nil || len(out) != 1 || out[0] != 41 {
		t.Fatalf("n=1: %v %v", out, err)
	}
}

func TestMapPanicBecomesLabelledJobError(t *testing.T) {
	for _, w := range []int{1, 4} {
		var ran atomic.Int32
		out, err := MapOpts(Options{Workers: w, Label: func(i int) string {
			return fmt.Sprintf("universe-%d", i)
		}}, 10, func(i, _ int) (int, error) {
			if i == 3 {
				panic("universe exploded")
			}
			ran.Add(1)
			return i * 10, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error", w)
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: error %v is not a *JobError", w, err)
		}
		if je.Index != 3 || je.Label != "universe-3" {
			t.Fatalf("workers=%d: wrong job identified: %+v", w, je)
		}
		// The crash must not have killed the sweep: every other job ran
		// and kept its slot.
		if got := ran.Load(); got != 9 {
			t.Fatalf("workers=%d: %d jobs ran, want 9", w, got)
		}
		for i, v := range out {
			want := i * 10
			if i == 3 {
				want = 0 // zero value at the crashed slot
			}
			if v != want {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, want)
			}
		}
	}
}

func TestMapCollectsEveryError(t *testing.T) {
	_, err := MapOpts(Options{Workers: 4}, 6, func(i, _ int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("odd job %d", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want joined error")
	}
	for _, frag := range []string{"job 1", "job 3", "job 5"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("joined error %q missing %q", err, frag)
		}
	}
}

func TestMapRespectsWorkerBound(t *testing.T) {
	var cur, peak atomic.Int32
	_, err := MapOpts(Options{Workers: 4}, 32, func(i, _ int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond) // force overlap between workers
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent jobs, worker bound is 4", p)
	}
}
