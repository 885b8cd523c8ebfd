package workload

import (
	"math"
	"testing"
	"testing/quick"

	"halfback/internal/netem"
	"halfback/internal/sim"
)

func TestFixedDist(t *testing.T) {
	d := Fixed{Bytes: 100_000}
	if d.Sample(sim.NewRand(1)) != 100_000 || d.Mean() != 100_000 {
		t.Fatal("fixed dist broken")
	}
	if d.Name() != "fixed-100000B" {
		t.Fatalf("name %q", d.Name())
	}
}

func TestEmpiricalValidation(t *testing.T) {
	bad := [][]Anchor{
		{},
		{{Bytes: 10, P: 0.5}},
		{{Bytes: 10, P: 0.5}, {Bytes: 5, P: 1}}, // bytes not increasing
		{{Bytes: 10, P: 0.8}, {Bytes: 20, P: 0.5}}, // P not increasing
		{{Bytes: 10, P: 0.5}, {Bytes: 20, P: 0.9}}, // final != 1
		{{Bytes: 0, P: 0.5}, {Bytes: 20, P: 1}},    // bytes < 1
	}
	for i, anchors := range bad {
		if _, err := NewEmpirical("x", anchors); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestEmpiricalSamplingMatchesAnchors(t *testing.T) {
	d := MustEmpirical("t", []Anchor{
		{Bytes: 1000, P: 0.25},
		{Bytes: 10_000, P: 0.75},
		{Bytes: 100_000, P: 1.00},
	})
	rng := sim.NewRand(1)
	const n = 200000
	var le1k, le10k int
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 1 || v > 100_000 {
			t.Fatalf("sample %d out of support", v)
		}
		if v <= 1000 {
			le1k++
		}
		if v <= 10_000 {
			le10k++
		}
	}
	if got := float64(le1k) / n; math.Abs(got-0.25) > 0.01 {
		t.Fatalf("P[X≤1k] = %v, want 0.25", got)
	}
	if got := float64(le10k) / n; math.Abs(got-0.75) > 0.01 {
		t.Fatalf("P[X≤10k] = %v, want 0.75", got)
	}
}

func TestEmpiricalMeanMatchesSampling(t *testing.T) {
	for _, d := range EvaluatedDistributions() {
		rng := sim.NewRand(7)
		const n = 300000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		sampled := sum / n
		if rel := math.Abs(sampled-d.Mean()) / d.Mean(); rel > 0.02 {
			t.Errorf("%s: analytic mean %v vs sampled %v", d.Name(), d.Mean(), sampled)
		}
	}
}

func TestPaperAnchorConstraints(t *testing.T) {
	rng := sim.NewRand(3)
	// §2.1: the Tier-1 ISP trace carries ~34.7% of bytes in flows ≤141KB.
	internet := FractionOfBytesBelow(InternetSizes(), 141<<10, rng.Fork(), 200000)
	if internet < 0.25 || internet > 0.45 {
		t.Fatalf("Internet bytes below 141KB = %v, want ≈0.35", internet)
	}
	// Data centers: a small share of bytes below 141KB (the paper says
	// <1%; our truncation at 1MB — the paper's own — compresses the
	// elephant tail, so allow up to ~20%).
	for _, d := range []*Empirical{BensonSizes(), VL2Sizes()} {
		frac := FractionOfBytesBelow(d, 141<<10, rng.Fork(), 200000)
		if frac >= 0.35 {
			t.Errorf("%s bytes below 141KB = %v, should be small", d.Name(), frac)
		}
	}
	// Flow-count share below 141KB must be large for all three (>75%
	// of flows are small even when bytes are elephant-dominated).
	for _, d := range EvaluatedDistributions() {
		r := sim.NewRand(4)
		small := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if d.Sample(r) <= 141<<10 {
				small++
			}
		}
		if frac := float64(small) / n; frac < 0.75 {
			t.Errorf("%s: only %v of flows ≤141KB", d.Name(), frac)
		}
	}
}

func TestMeanInterarrivalFor(t *testing.T) {
	// 100KB flows at 50% of 15Mbps: rate×util = 7.5Mbps = 937.5 KB/s →
	// one flow per ~106.7ms.
	got := MeanInterarrivalFor(100_000, 0.5, 15_000_000)
	seconds := float64(100_000*8) / (0.5 * 15e6)
	want := sim.Duration(seconds * float64(sim.Second))
	if got != want {
		t.Fatalf("interarrival %v, want %v", got, want)
	}
}

func TestPoissonArrivalsRateAndOrder(t *testing.T) {
	rng := sim.NewRand(5)
	mean := 100 * sim.Millisecond
	horizon := 200 * sim.Second
	arr := PoissonArrivals(rng, Fixed{Bytes: 1000}, mean, horizon)
	// Expected ≈ 2000 arrivals.
	if len(arr) < 1800 || len(arr) > 2200 {
		t.Fatalf("arrival count %d, want ≈2000", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At <= arr[i-1].At {
			t.Fatal("arrivals must be strictly ordered")
		}
	}
	for _, a := range arr {
		if a.At >= sim.Time(horizon) {
			t.Fatal("arrival beyond horizon")
		}
		if a.Bytes != 1000 {
			t.Fatal("size not drawn from dist")
		}
	}
}

func TestPlanetLabPopulationRanges(t *testing.T) {
	specs := PlanetLabPopulation(sim.NewRand(1), 2000)
	if len(specs) != 2000 {
		t.Fatal("population size")
	}
	lossy := 0
	for _, s := range specs {
		if s.RTT < sim.Duration(0.2*float64(sim.Millisecond)) || s.RTT > 400*sim.Millisecond {
			t.Fatalf("RTT %v out of the paper's range", s.RTT)
		}
		if s.RateBps < 3*netem.Mbps || s.RateBps > 1000*netem.Mbps {
			t.Fatalf("rate %d out of range", s.RateBps)
		}
		if s.BufferBytes < 16<<10 || s.BufferBytes > 1<<20 {
			t.Fatalf("buffer %d out of range", s.BufferBytes)
		}
		if s.LossProb > 0 {
			lossy++
		}
	}
	frac := float64(lossy) / 2000
	if frac < 0.08 || frac > 0.16 {
		t.Fatalf("lossy-path fraction %v, want ≈0.12", frac)
	}
}

func TestPlanetLabDeterminism(t *testing.T) {
	a := PlanetLabPopulation(sim.NewRand(9), 50)
	b := PlanetLabPopulation(sim.NewRand(9), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("population must be deterministic in the seed")
		}
	}
}

func TestHomeProfiles(t *testing.T) {
	profiles := HomeProfiles()
	if len(profiles) != 4 {
		t.Fatal("the paper evaluates four access networks")
	}
	byName := map[string]HomeProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	if byName["AT&T-DSL-wireless"].DownBps != 6*netem.Mbps {
		t.Fatal("AT&T DSL is ~6 Mbps in the paper")
	}
	if byName["Comcast-wired"].DownBps != 25*netem.Mbps {
		t.Fatal("Comcast is 25 Mbps in the paper")
	}
	// Wireless profiles must be lossier than wired ones.
	if !(byName["AT&T-DSL-wireless"].LossProb > byName["Comcast-wired"].LossProb) {
		t.Fatal("wireless should be lossier than wired")
	}
}

func TestHomePopulation(t *testing.T) {
	p := HomeProfiles()[0]
	specs := HomePopulation(sim.NewRand(1), p, 170)
	if len(specs) != 170 {
		t.Fatal("server count")
	}
	for _, s := range specs {
		if s.RTT <= p.AccessRTT {
			t.Fatal("end-to-end RTT must exceed the access RTT")
		}
		if s.RateBps != p.DownBps || s.UpRateBps != p.UpBps {
			t.Fatal("rates must come from the profile")
		}
	}
}

func TestPathSpecToConfig(t *testing.T) {
	spec := PathSpec{RTT: 50 * sim.Millisecond, RateBps: 10 * netem.Mbps, BufferBytes: 64 << 10, LossProb: 0.01, UpRateBps: 1 * netem.Mbps}
	cfg := spec.ToConfig()
	if cfg.RTT != spec.RTT || cfg.RateBps != spec.RateBps ||
		cfg.BufferBytes != spec.BufferBytes || cfg.LossProb != spec.LossProb ||
		cfg.UpRateBps != spec.UpRateBps {
		t.Fatal("conversion lost fields")
	}
}

func TestWebCorpus(t *testing.T) {
	pages := BuildCorpus(1, 100)
	if len(pages) != 100 {
		t.Fatal("corpus size")
	}
	for _, p := range pages {
		if p.NumObjects() < 5 || p.NumObjects() > 52 {
			t.Fatalf("%s: %d objects", p.Name, p.NumObjects())
		}
		if p.TotalBytes() < 15<<10 {
			t.Fatalf("%s: implausibly light page (%d B)", p.Name, p.TotalBytes())
		}
		for _, b := range p.ObjectBytes {
			if b < 1500 || b > 800<<10 {
				t.Fatalf("%s: object of %d bytes", p.Name, b)
			}
		}
	}
	// Popular-site front pages of 2015: a few hundred KB on average.
	mean := MeanPageBytes(pages)
	if mean < 150<<10 || mean > 2<<20 {
		t.Fatalf("mean page %v bytes", mean)
	}
}

func TestWebCorpusDeterministic(t *testing.T) {
	a := BuildCorpus(42, 10)
	b := BuildCorpus(42, 10)
	for i := range a {
		if a[i].TotalBytes() != b[i].TotalBytes() {
			t.Fatal("corpus must be deterministic in the seed")
		}
	}
	c := BuildCorpus(43, 10)
	if a[0].TotalBytes() == c[0].TotalBytes() && a[1].TotalBytes() == c[1].TotalBytes() {
		t.Fatal("different seeds should differ")
	}
}

func TestMeanPageBytesEmpty(t *testing.T) {
	if MeanPageBytes(nil) != 0 {
		t.Fatal("empty corpus mean")
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := InternetSizes()
	f := func(a, b float64) bool {
		ua, ub := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if ua > ub {
			ua, ub = ub, ua
		}
		return d.quantile(ua) <= d.quantile(ub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
