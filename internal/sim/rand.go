package sim

import "math"

// Rand is a small, fast, deterministic PRNG (SplitMix64 core feeding a
// xorshift-style mix) used everywhere randomness is needed. We implement it
// ourselves rather than using math/rand so that (a) sequences are stable
// across Go releases and (b) independent streams can be forked cheaply for
// parallel parameter sweeps without correlation.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Seed zero is remapped so
// the all-zero state (a fixed point for some mixers) never occurs.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// splitmix64 advances the state and returns a well-mixed 64-bit value.
func (r *Rand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.next() }

// Fork derives an independent generator. The child stream is decorrelated
// from the parent by mixing a draw through an additional constant, so a
// sweep can fork one generator per trial and remain reproducible no matter
// how trials are ordered or parallelised.
func (r *Rand) Fork() *Rand {
	return NewRand(r.next() ^ 0xd6e8feb86659fd93)
}

// ForkNamed derives a child stream bound to a label, so components that
// draw in data-dependent order (e.g. per-flow jitter) do not perturb each
// other's sequences.
func (r *Rand) ForkNamed(label string) *Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRand(r.next() ^ h)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Int63n returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.next() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// It is the workhorse for Poisson interarrival processes.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard the log against u == 0 (cannot happen with 53-bit mantissa
	// draws from Float64, but cheap insurance).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, clamped to at least 1ns.
func (r *Rand) ExpDuration(mean Duration) Duration {
	d := Duration(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Uniform returns a uniform value in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// LogUniform returns a value whose logarithm is uniform on [log lo, log hi).
// Used for path populations spanning orders of magnitude (RTTs from 0.2ms
// to 400ms, bandwidths from Mbps to Gbps). Both bounds must be positive.
func (r *Rand) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("sim: LogUniform requires 0 < lo < hi")
	}
	return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
}

// Normal returns a normally distributed value (Box–Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pareto returns a bounded Pareto draw on [lo,hi] with shape alpha. Web
// object sizes use this (heavy-tailed but truncated).
func (r *Rand) Pareto(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		panic("sim: Pareto requires alpha>0 and 0<lo<hi")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
