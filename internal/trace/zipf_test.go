package trace

import (
	"math"
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
)

// rank is one draw of the generator's batched fill: the smallest rank
// whose cumulative weight reaches u.
func (z *zipfSampler) rank(u float64) int {
	i := z.start(u)
	return z.walk(i, z.cum[i], u)
}

// searchRank is the zipf sampler's oracle: the binary search of the CDF
// the generator used before the guide table, clamped to the last rank.
func searchRank(cum []float64, u float64) int {
	return min(sort.SearchFloat64s(cum, u), len(cum)-1)
}

var (
	zipfFootprints = []int{1, 2, 3, 1000, 1 << 16, 1 << 18}
	zipfThetas     = []float64{0.01, 0.5, 0.8, 0.99}
)

// The guide-table draw must return the binary search's rank for every
// u: seeded draws as the generator makes them, and the adversarial
// values, namely both ends of the weight range, every cumulative weight
// and every bucket edge, each with its float neighbours on both sides.
func TestZipfSamplerMatchesBinarySearch(t *testing.T) {
	for _, n := range zipfFootprints {
		for _, theta := range zipfThetas {
			z := newZipfSampler(n, theta)
			checkRanks(t, z, zipfProbes(z))
		}
	}
}

// A guide entry off in either direction, as float rounding of a bucket
// index can make it, may cost steps but must never change a rank.
func TestZipfRankIgnoresGuideError(t *testing.T) {
	for _, n := range []int{2, 3, 1000} {
		for _, theta := range zipfThetas {
			z := newZipfSampler(n, theta)
			us := zipfProbes(z)
			exact := z.guide
			for _, shift := range []int{-7, -1, 1, 7} {
				z.guide = make([]int32, len(exact))
				for b, r := range exact {
					z.guide[b] = int32(min(max(int(r)+shift, 0), n-1))
				}
				checkRanks(t, z, us)
			}
		}
	}
}

// zipfProbes returns seeded draws and the adversarial u values of z.
func zipfProbes(z *zipfSampler) []float64 {
	total := z.total()
	var us []float64
	for _, seed := range []uint64{1, 2, 0xdeadbeef} {
		rng := splitmix64(seed)
		for range 1 << 12 {
			us = append(us, rng.float64()*total)
		}
	}
	edges := append([]float64{0, total}, z.cum...)
	for b := range z.guide {
		edges = append(edges, float64(b)/z.scale)
	}
	for _, u := range edges {
		us = append(us, math.Nextafter(u, math.Inf(-1)), u, math.Nextafter(u, math.Inf(1)))
	}
	return us
}

// checkRanks compares z's rank with the binary search at every u.
func checkRanks(t *testing.T, z *zipfSampler, us []float64) {
	t.Helper()
	mismatches := 0
	for _, u := range us {
		if got, want := z.rank(u), searchRank(z.cum, u); got != want {
			if mismatches++; mismatches > 5 {
				t.Fatalf("n=%d: more mismatches", len(z.cum))
			}
			t.Errorf("n=%d total=%v: rank(%v) = %d, binary search gives %d", len(z.cum), z.total(), u, got, want)
		}
	}
}

// genZipfBySearch is the generator as it was before the guide table:
// one binary search of the CDF per draw.
func genZipfBySearch(cfg GenConfig) []Record {
	n := cfg.FootprintLines
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), cfg.ZipfTheta)
		cum[i] = total
	}
	rng := splitmix64(cfg.Seed)
	recs := make([]Record, cfg.Records)
	for i := range recs {
		rank := searchRank(cum, rng.float64()*total)
		recs[i] = Record{
			TSC:   clock.Picos(i) * cfg.Gap,
			Kind:  KindRead,
			Addr:  cfg.Base + uint64(rank)*mem.LineBytes,
			Bytes: mem.LineBytes,
		}
	}
	return recs
}

// A zipf trace of the openloop benchmark's shape must be record for
// record that of the binary search generator, so every trace, golden
// and digest built on one stays byte-identical.
func TestZipfTraceMatchesBinarySearch(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Records = 1 << 14
	cfg.FootprintLines = 1 << 18
	if !equalRecords(MustGenerate(PatternZipf, cfg), genZipfBySearch(cfg)) {
		t.Error("zipf trace differs from the binary search generator")
	}
}

// fracPow must be math.Pow bit for bit: over the first 2^16 ranks, random
// ranks up to the largest footprint, and skews at both ends of (0, 1), on
// both sides of the switch at one half, and at random.
func TestFracPowMatchesPow(t *testing.T) {
	thetas := append([]float64{math.SmallestNonzeroFloat64, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(1, 0)}, zipfThetas...)
	xs := []float64{math.MaxInt32, math.MaxInt32 - 1}
	for x := 1; x <= 1<<16; x++ {
		xs = append(xs, float64(x))
	}
	rng := splitmix64(7)
	for range 64 {
		thetas = append(thetas, rng.float64())
	}
	for range 1 << 12 {
		xs = append(xs, float64(1+rng.next()%math.MaxInt32))
	}
	for _, theta := range thetas {
		if theta <= 0 {
			continue
		}
		for _, x := range xs {
			if got, want := fracPow(x, theta), math.Pow(x, theta); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fracPow(%v, %v) = %v, math.Pow gives %v", x, theta, got, want)
			}
		}
	}
}

// BenchmarkGenerate synthesizes the openloop benchmark's traces: 262,144
// records over a 2^18-line footprint. It bypasses Generate, whose memo
// would return the first iteration's trace: the mixed row runs the
// generator, and the zipf row draws from a sampler built once outside
// the loop, so it measures draws only; BenchmarkGenerateZipfCDF measures
// the build.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.Records = 1 << 18
	cfg.FootprintLines = 1 << 18
	b.Run(string(PatternMixed), func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			genMixed(cfg)
		}
	})
	b.Run(string(PatternZipf), func(b *testing.B) {
		z := newZipfSampler(cfg.FootprintLines, cfg.ZipfTheta)
		b.ReportAllocs()
		for b.Loop() {
			recs := make([]Record, cfg.Records)
			fillChunked(len(recs), chunkArgs{cfg: cfg, recs: recs, z: z}, fillZipf)
		}
	})
}

// BenchmarkGenerateZipfCDF builds the openloop benchmark's zipf CDF, a
// fresh one per iteration: what each zipf trace costs beyond its draws.
func BenchmarkGenerateZipfCDF(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		newZipfSampler(1<<18, 0.8)
	}
}
