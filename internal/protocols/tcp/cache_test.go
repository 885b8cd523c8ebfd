package tcp_test

import (
	"sync"
	"testing"

	"halfback/internal/netem"
	"halfback/internal/protocols/tcp"
	"halfback/internal/ptest"
	"halfback/internal/sim"
)

// Hammer one cache from many goroutines. The assertions are mild — the
// real check is the race detector proving every access path (Lookup,
// Store, Stats, Len) holds the mutex.
func TestPathCacheConcurrentAccess(t *testing.T) {
	c := tcp.NewPathCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := netem.NodeID(g % 4)
				dst := netem.NodeID(10 + i%5)
				c.Store(src, dst, tcp.CacheEntry{Cwnd: float64(i)})
				if e, ok := c.Lookup(src, dst); ok && e.Cwnd < 0 {
					t.Errorf("negative cwnd from cache: %+v", e)
				}
				c.Stats()
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 4*5 {
		t.Fatalf("cache holds %d paths, want %d", c.Len(), 4*5)
	}
}

// cacheUniverse runs one self-contained TCP-Cache universe — a cold
// flow that seeds the cache, then a warm flow that reads it — and
// reports what the universe observed.
type cacheOutcome struct {
	coldFCT, warmFCT sim.Duration
	cachedCwnd       float64
	paths            int
}

func cacheUniverse(t *testing.T, flowBytes int) cacheOutcome {
	t.Helper()
	cache := tcp.NewPathCache()
	w := ptest.NewWorld(netem.PathConfig{})
	cold := w.Transfer(flowBytes, tcp.New(tcp.Config{InitialWindow: 2, Cache: cache}))
	warm := w.Transfer(flowBytes, tcp.New(tcp.Config{InitialWindow: 2, Cache: cache}))
	if !cold.Completed || !warm.Completed {
		t.Fatalf("universe(%d bytes): flows did not complete", flowBytes)
	}
	e, ok := cache.Lookup(w.Path.Server.ID, w.Path.Client.ID)
	if !ok {
		t.Fatalf("universe(%d bytes): no cached entry for own path", flowBytes)
	}
	return cacheOutcome{cold.FCT(), warm.FCT(), e.Cwnd, cache.Len()}
}

// Two TCP-Cache universes running concurrently must never observe each
// other's cwnd seeds: each owns a private PathCache, so every observable
// (cold/warm FCT, cached cwnd, path count) must match the same universe
// run alone. Run with -race this also proves the engines share no
// hidden mutable state.
func TestPathCacheUniversesIsolated(t *testing.T) {
	sizes := []int{60_000, 140_000}
	want := make([]cacheOutcome, len(sizes))
	for i, n := range sizes {
		want[i] = cacheUniverse(t, n)
	}
	if want[0].cachedCwnd == want[1].cachedCwnd {
		t.Fatalf("test needs universes with distinct cwnd seeds, both cached %v", want[0].cachedCwnd)
	}

	for round := 0; round < 4; round++ {
		got := make([]cacheOutcome, len(sizes))
		var wg sync.WaitGroup
		for i, n := range sizes {
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				got[i] = cacheUniverse(t, n)
			}(i, n)
		}
		wg.Wait()
		for i := range sizes {
			if got[i] != want[i] {
				t.Fatalf("round %d universe %d: concurrent run observed %+v, solo run %+v — cross-universe leakage",
					round, i, got[i], want[i])
			}
			if got[i].paths != 1 {
				t.Fatalf("universe %d cache holds %d paths, want its own 1", i, got[i].paths)
			}
		}
	}
}
