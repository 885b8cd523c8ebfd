package tcp

import (
	"sync"

	"halfback/internal/netem"
)

// CacheEntry is the state TCP-Cache preserves across flows on one path.
type CacheEntry struct {
	Cwnd     float64
	Ssthresh float64
}

// PathCache implements TCP-Cache's cross-flow memory: the final
// congestion state of each completed flow, keyed by (source,destination).
// One PathCache is shared by all TCP-Cache flows of a simulation,
// mirroring a host-wide cache like TCP Fast Start's [28].
//
// Entries never age. The paper notes caching schemes "draw back to
// Slow-Start when the variables are aged", and calls the unchanging
// topology of its own evaluation, which keeps the cache permanently
// fresh, "an unrealistic advantage"; that scenario is the one modelled.
//
// The cache is owned by one scheme.Instance and therefore by one
// simulation universe, but the parallel sweep engine (internal/fleet)
// runs many universes concurrently, so the cache is also mutex-guarded:
// cross-universe sharing by accident stays a correctness bug, not a
// data race.
type PathCache struct {
	mu      sync.Mutex
	entries map[pathKey]CacheEntry
	hits    int64
	misses  int64
}

type pathKey struct {
	src, dst netem.NodeID
}

// NewPathCache returns an empty cache.
func NewPathCache() *PathCache {
	return &PathCache{entries: make(map[pathKey]CacheEntry)}
}

// Lookup returns the cached state for a path if present and fresh.
func (pc *PathCache) Lookup(src, dst netem.NodeID) (CacheEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[pathKey{src, dst}]
	if !ok {
		pc.misses++
		return CacheEntry{}, false
	}
	pc.hits++
	return e, true
}

// Store records a completed flow's final state.
func (pc *PathCache) Store(src, dst netem.NodeID, e CacheEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries[pathKey{src, dst}] = e
}

// Stats reports cache effectiveness for experiment logs.
func (pc *PathCache) Stats() (hits, misses int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// Len returns the number of cached paths.
func (pc *PathCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}
