package workload

import (
	"fmt"
	"sync"

	"halfback/internal/sim"
)

// Population memoization.
//
// Some cells regenerate a population another cell of the same process
// already drew. Fig. 10 and fctsweep seed a cell's arrivals without the
// scheme, so every scheme column after the first reuses the schedule.
// Figs. 1, 12 and 17 share capacity-sweep cells, whose arrivals are
// seeded by (scheme, utilization), so in one process (-fig all) Fig. 12
// reuses Fig. 1's schedules and Fig. 17 those of the schemes it shares
// with them. Figs. 5–8 draw the same PlanetLab population, once per
// exhibit's plan. The test suites repeat exhibits and cells within one
// process. A sweep whose arrivals are seeded per cell, run alone, only
// misses. Generation is deterministic — a generator's output is fully
// determined by the consumed Rand's starting state plus the generation
// parameters — so (state, parameters) is a sound cache key.
//
// The contract for every *Cached variant: the rng argument must be a
// throwaway fork dedicated to this one generation (the established call
// idiom, e.g. rng.ForkNamed("arrivals")). On a cache hit the fork is
// simply not consumed; since nothing else ever draws from it, skipping
// those draws is unobservable and output stays bit-identical.
//
// Callers receive a fresh copy, never the cached backing slice.

// memoKey identifies one generation: the generator kind, the consumed
// rng's starting state, and a literal rendering of every parameter.
type memoKey struct {
	kind   string
	rng    uint64
	params string
}

// memoCap bounds the cache; a full cache is reset wholesale rather than
// tracking recency — population reuse is dense within a sweep and the
// whole cache is small, so eviction precision buys nothing.
const memoCap = 256

var memo struct {
	mu sync.Mutex
	m  map[memoKey]any
}

// memoized returns the cached value for key, generating and storing it
// on first use. gen runs outside the lock on a miss; concurrent first
// callers may both generate (identical values — generation is
// deterministic) and one result wins.
func memoized(key memoKey, gen func() any) any {
	memo.mu.Lock()
	if v, ok := memo.m[key]; ok {
		memo.mu.Unlock()
		return v
	}
	memo.mu.Unlock()
	v := gen()
	memo.mu.Lock()
	if memo.m == nil || len(memo.m) >= memoCap {
		memo.m = make(map[memoKey]any)
	}
	if prev, ok := memo.m[key]; ok {
		v = prev
	} else {
		memo.m[key] = v
	}
	memo.mu.Unlock()
	return v
}

// distParams renders a size distribution's full identity. %#v spells out
// every field of the concrete type (distributions are parameter structs,
// not stateful objects), so two dists render equal iff they generate
// identical samples from equal rng states.
func distParams(dist SizeDist) string {
	return fmt.Sprintf("%#v", dist)
}

// PoissonArrivalsCached is PoissonArrivals behind the population memo.
// rng must be a throwaway fork dedicated to this schedule.
func PoissonArrivalsCached(rng *sim.Rand, dist SizeDist, meanInterarrival sim.Duration, horizon sim.Duration) []Arrival {
	key := memoKey{
		kind:   "poisson",
		rng:    rng.State(),
		params: fmt.Sprintf("%s|%d|%d", distParams(dist), meanInterarrival, horizon),
	}
	v := memoized(key, func() any {
		return PoissonArrivals(rng, dist, meanInterarrival, horizon)
	})
	return append([]Arrival(nil), v.([]Arrival)...)
}

// PlanetLabPopulationCached is PlanetLabPopulation behind the population
// memo. rng must be a throwaway fork dedicated to this population.
func PlanetLabPopulationCached(rng *sim.Rand, n int) []PathSpec {
	key := memoKey{
		kind:   "planetlab",
		rng:    rng.State(),
		params: fmt.Sprintf("%d", n),
	}
	v := memoized(key, func() any {
		return PlanetLabPopulation(rng, n)
	})
	return append([]PathSpec(nil), v.([]PathSpec)...)
}

// HomePopulationCached is HomePopulation behind the population memo.
// rng must be a throwaway fork dedicated to this population.
func HomePopulationCached(rng *sim.Rand, profile HomeProfile, servers int) []PathSpec {
	key := memoKey{
		kind:   "home",
		rng:    rng.State(),
		params: fmt.Sprintf("%#v|%d", profile, servers),
	}
	v := memoized(key, func() any {
		return HomePopulation(rng, profile, servers)
	})
	return append([]PathSpec(nil), v.([]PathSpec)...)
}
