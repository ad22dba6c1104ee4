package trace

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/mem"
)

func testGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Records = 4096
	cfg.FootprintLines = 1024
	cfg.Gap = clock.Nanosecond
	return cfg
}

// Every generator must emit a valid stream with the requested record
// count and inter-arrival spacing, and be a pure function of its
// configuration: Generate's records equal a fresh, uncached synthesis.
func TestGeneratorsValidAndDeterministic(t *testing.T) {
	cfg := testGenConfig()
	for _, p := range Patterns() {
		a, err := Generate(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(a) != cfg.Records {
			t.Errorf("%s: %d records, want %d", p, len(a), cfg.Records)
		}
		if err := Validate(a); err != nil {
			t.Errorf("%s: invalid stream: %v", p, err)
		}
		for i, r := range a {
			if r.TSC != clock.Picos(i)*cfg.Gap {
				t.Errorf("%s: record %d at %d, want %d", p, i, r.TSC, clock.Picos(i)*cfg.Gap)
				break
			}
		}
		b, err := synthesize(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !equalRecords(a, b) {
			t.Errorf("%s: Generate differs from a fresh synthesis of the same config", p)
		}
	}
}

func TestStreamAndStridedAddresses(t *testing.T) {
	cfg := testGenConfig()
	cfg.Base = 1 << 20
	stream := MustGenerate(PatternStream, cfg)
	for i, r := range stream[:16] {
		if want := cfg.Base + uint64(i)*mem.LineBytes; r.Addr != want {
			t.Fatalf("stream record %d at 0x%x, want 0x%x", i, r.Addr, want)
		}
	}
	strided := MustGenerate(PatternStrided, cfg)
	for i, r := range strided[:16] {
		if want := cfg.Base + uint64(i*cfg.StrideLines)*mem.LineBytes; r.Addr != want {
			t.Fatalf("strided record %d at 0x%x, want 0x%x", i, r.Addr, want)
		}
	}
}

// The pointer chase must walk a single cycle: the first FootprintLines
// steps visit every line exactly once.
func TestChaseIsPermutationCycle(t *testing.T) {
	cfg := testGenConfig()
	cfg.Records = cfg.FootprintLines
	recs := MustGenerate(PatternChase, cfg)
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Addr] {
			t.Fatalf("line 0x%x visited twice within one footprint pass", r.Addr)
		}
		seen[r.Addr] = true
	}
	if len(seen) != cfg.FootprintLines {
		t.Errorf("chase visited %d distinct lines, want %d", len(seen), cfg.FootprintLines)
	}
}

// The mixed pattern's store share must track WritePercent.
func TestMixedWriteShare(t *testing.T) {
	cfg := testGenConfig()
	cfg.Records = 1 << 14
	cfg.WritePercent = 30
	sum := Summarize(MustGenerate(PatternMixed, cfg))
	frac := float64(sum.Writes) / float64(sum.Records)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("write share %.3f, want ~0.30", frac)
	}
}

// The zipf pattern must be skewed: the hottest 10%% of lines absorb
// well over their uniform share of accesses.
func TestZipfSkew(t *testing.T) {
	cfg := testGenConfig()
	cfg.Records = 1 << 14
	counts := make(map[uint64]int)
	for _, r := range MustGenerate(PatternZipf, cfg) {
		counts[r.Addr]++
	}
	hotCut := cfg.Base + uint64(cfg.FootprintLines/10)*mem.LineBytes
	hot := 0
	for addr, n := range counts {
		if addr < hotCut {
			hot += n
		}
	}
	if frac := float64(hot) / float64(cfg.Records); frac < 0.3 {
		t.Errorf("hottest 10%% of lines got %.2f of accesses, want skew > 0.3", frac)
	}
	uniform := MustGenerate(PatternMixed, cfg)
	uniformHot := 0
	for _, r := range uniform {
		if r.Addr < hotCut {
			uniformHot++
		}
	}
	if hot <= uniformHot {
		t.Errorf("zipf (%d hot hits) is no more skewed than uniform (%d)", hot, uniformHot)
	}
}

// Different seeds must produce different randomized streams.
func TestSeedsDiffer(t *testing.T) {
	cfg := testGenConfig()
	for _, p := range []Pattern{PatternChase, PatternMixed, PatternZipf} {
		cfg.Seed = 1
		a := MustGenerate(p, cfg)
		cfg.Seed = 2
		b := MustGenerate(p, cfg)
		if equalRecords(a, b) {
			t.Errorf("%s: seeds 1 and 2 produced identical streams", p)
		}
	}
}

func TestGenConfigValidation(t *testing.T) {
	mutations := map[string]func(*GenConfig){
		"records":   func(c *GenConfig) { c.Records = 0 },
		"base":      func(c *GenConfig) { c.Base = 7 },
		"footprint": func(c *GenConfig) { c.FootprintLines = 0 },
		"stride":    func(c *GenConfig) { c.StrideLines = -1 },
		"gap":       func(c *GenConfig) { c.Gap = -1 },
		// The last record's TSC would wrap past MaxInt64 picoseconds.
		"gap-overflow": func(c *GenConfig) { c.Gap = clock.Picos(math.MaxInt64/int64(c.Records-1) + 1) },
		"write-pct":    func(c *GenConfig) { c.WritePercent = 101 },
		// More records than Generate materializes, at a gap that cannot
		// overflow.
		"records-max": func(c *GenConfig) { c.Records, c.Gap = MaxArrivals+1, 0 },
		"theta":       func(c *GenConfig) { c.ZipfTheta = 1.5 },
		"theta-nan":   func(c *GenConfig) { c.ZipfTheta = math.NaN() },
		// Wider than an int32 line index (negative on 32-bit hosts).
		"footprint-int32": func(c *GenConfig) { c.FootprintLines = int(int64(math.MaxInt32) + 1) },
	}
	for name, mutate := range mutations {
		cfg := DefaultGenConfig()
		mutate(&cfg)
		if _, err := Generate(PatternStream, cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if _, err := Generate(Pattern("bogus"), DefaultGenConfig()); err == nil {
		t.Error("unknown pattern accepted")
	}
	if err := DefaultGenConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestFootprintBytes(t *testing.T) {
	cfg := testGenConfig()
	if got := cfg.FootprintBytes(PatternStream); got != uint64(cfg.Records)*mem.LineBytes {
		t.Errorf("stream footprint = %d", got)
	}
	if got := cfg.FootprintBytes(PatternStrided); got != uint64(cfg.Records*cfg.StrideLines)*mem.LineBytes {
		t.Errorf("strided footprint = %d", got)
	}
	if got := cfg.FootprintBytes(PatternZipf); got != uint64(cfg.FootprintLines)*mem.LineBytes {
		t.Errorf("zipf footprint = %d", got)
	}
}

// genMixedSerial and genZipfSerial are the generators as one serial pass
// over the seed's stream, with the zipf CDF built by serialZipfSampler:
// the reference a chunked fill must reproduce byte for byte.
func genMixedSerial(cfg GenConfig) []Record {
	rng := splitmix64(cfg.Seed)
	recs := make([]Record, cfg.Records)
	for i := range recs {
		line := rng.next() % uint64(cfg.FootprintLines)
		kind := KindRead
		if int(rng.next()%100) < cfg.WritePercent {
			kind = KindWrite
		}
		recs[i] = Record{
			TSC:   clock.Picos(i) * cfg.Gap,
			Kind:  kind,
			Addr:  cfg.Base + line*mem.LineBytes,
			Bytes: mem.LineBytes,
		}
	}
	return recs
}

func genZipfSerial(cfg GenConfig) []Record {
	z := serialZipfSampler(cfg.FootprintLines, cfg.ZipfTheta)
	total := z.total()
	rng := splitmix64(cfg.Seed)
	recs := make([]Record, cfg.Records)
	for i := range recs {
		rank := z.rank(rng.float64() * total)
		recs[i] = Record{
			TSC:   clock.Picos(i) * cfg.Gap,
			Kind:  KindRead,
			Addr:  cfg.Base + uint64(rank)*mem.LineBytes,
			Bytes: mem.LineBytes,
		}
	}
	return recs
}

func serialZipfSampler(n int, theta float64) *zipfSampler {
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += 1 / fracPow(float64(i+1), theta)
		cum[i] = total
	}
	nb := max(n/zipfRanksPerBucket, 1)
	z := &zipfSampler{cum: cum, guide: make([]int32, nb), scale: float64(nb) / total}
	r := 0
	for b := range z.guide {
		edge := float64(b) / z.scale
		for r < n-1 && cum[r] < edge {
			r++
		}
		z.guide[b] = int32(r)
	}
	return z
}

// equalSamplers reports whether two samplers hold bit-identical tables.
func equalSamplers(a, b *zipfSampler) bool {
	if len(a.cum) != len(b.cum) || len(a.guide) != len(b.guide) || a.scale != b.scale {
		return false
	}
	for i := range a.cum {
		if math.Float64bits(a.cum[i]) != math.Float64bits(b.cum[i]) {
			return false
		}
	}
	for i := range a.guide {
		if a.guide[i] != b.guide[i] {
			return false
		}
	}
	return true
}

// withGOMAXPROCS runs f at each worker count and restores the old one.
func withGOMAXPROCS(t *testing.T, procs []int, f func(t *testing.T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs=%d", p), f)
	}
}

// Mixed and zipf traces, and the zipf CDF, must be byte for byte the
// serial pass's at any worker count, on both sides of the chunking
// threshold and at sizes no worker count divides. The generators are
// called directly: Generate would return the first worker count's
// trace from its memo.
func TestChunkedGenerationMatchesSerial(t *testing.T) {
	sizes := []int{1, 7, chunkMin - 1, chunkMin, chunkMin + 1, 3*chunkMin + 5}
	footprints := []int{1000, chunkMin + 3}
	withGOMAXPROCS(t, []int{1, 2, 7}, func(t *testing.T) {
		for _, n := range footprints {
			if !equalSamplers(newZipfSampler(n, 0.8), serialZipfSampler(n, 0.8)) {
				t.Errorf("footprint %d: zipf CDF differs from the serial build", n)
			}
		}
		for _, seed := range []uint64{1, 2, 0xdeadbeef} {
			for _, records := range sizes {
				cfg := testGenConfig()
				cfg.Seed, cfg.Records = seed, records
				cfg.FootprintLines = footprints[records%len(footprints)]
				if !equalRecords(genMixed(cfg), genMixedSerial(cfg)) {
					t.Errorf("mixed seed=%#x records=%d: differs from the serial pass", seed, records)
				}
				if !equalRecords(genZipf(cfg), genZipfSerial(cfg)) {
					t.Errorf("zipf seed=%#x records=%d: differs from the serial pass", seed, records)
				}
			}
		}
	})
}

// Skipping k draws must land where k calls to next do.
func TestRNGSkipMatchesDraws(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64} {
		for _, k := range []uint64{0, 1, 2, 3, 1000, 1 << 20} {
			drawn := splitmix64(seed)
			for range k {
				drawn.next()
			}
			skipped := splitmix64(seed)
			skipped.skip(k)
			if *skipped != *drawn {
				t.Errorf("seed %#x: skip(%d) reached state %#x, %d draws reach %#x", seed, k, uint64(*skipped), k, uint64(*drawn))
			}
			if a, b := skipped.next(), drawn.next(); a != b {
				t.Errorf("seed %#x: draw after skip(%d) = %#x, want %#x", seed, k, a, b)
			}
		}
	}
}

// The trace memo must never serve a trace built for another pattern or
// configuration: interleaved configs, one per pattern plus one per
// GenConfig field, each changing that field's trace, must each match an
// uncached reference. Concurrent generators, which race to build and
// replace the memo, must all get those same traces. A repeat returns
// the memo's own slice, clipped so an append cannot write into it.
func TestTraceMemo(t *testing.T) {
	base := testGenConfig()
	base.Records = chunkMin + 1
	type memoCase struct {
		p   Pattern
		cfg GenConfig
	}
	var cases []memoCase
	for _, p := range Patterns() {
		cases = append(cases, memoCase{p, base})
	}
	for _, v := range []struct {
		p      Pattern
		mutate func(*GenConfig)
	}{
		{PatternMixed, func(c *GenConfig) { c.Seed = 2 }},
		{PatternMixed, func(c *GenConfig) { c.Base = 1 << 20 }},
		{PatternZipf, func(c *GenConfig) { c.Records = chunkMin + 2 }},
		{PatternMixed, func(c *GenConfig) { c.Gap = 2 * clock.Nanosecond }},
		{PatternMixed, func(c *GenConfig) { c.WritePercent = 50 }},
		{PatternZipf, func(c *GenConfig) { c.ZipfTheta = 0.5 }},
		{PatternZipf, func(c *GenConfig) { c.FootprintLines = 2 * base.FootprintLines }},
		{PatternStrided, func(c *GenConfig) { c.StrideLines = 8 }},
	} {
		cfg := base
		v.mutate(&cfg)
		cases = append(cases, memoCase{v.p, cfg})
	}
	reference := func(c memoCase) []Record {
		switch c.p {
		case PatternMixed:
			return genMixedSerial(c.cfg)
		case PatternZipf:
			return genZipfSerial(c.cfg)
		}
		recs, err := synthesize(c.p, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	want := make([][]Record, len(cases))
	for i, c := range cases {
		want[i] = reference(c)
		if i >= len(Patterns()) && equalRecords(want[i], reference(memoCase{c.p, base})) {
			t.Fatalf("config %d: %+v leaves the %s trace unchanged", i, c.cfg, c.p)
		}
	}
	check := func(i int) string {
		got := MustGenerate(cases[i].p, cases[i].cfg)
		if cap(got) != len(got) {
			return fmt.Sprintf("config %d: cap %d, len %d", i, cap(got), len(got))
		}
		if !equalRecords(got, want[i]) {
			return fmt.Sprintf("config %d (%s): trace differs from the uncached reference", i, cases[i].p)
		}
		return ""
	}
	for round := range 3 {
		for i := range cases {
			if e := check(i); e != "" {
				t.Errorf("round %d %s", round, e)
			}
		}
	}
	if a, b := MustGenerate(PatternZipf, base), MustGenerate(PatternZipf, base); &a[0] != &b[0] {
		t.Error("a repeated config built a new trace")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*2*len(cases))
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 2 {
				for k := range cases {
					if e := check((g + k) % len(cases)); e != "" {
						errs <- fmt.Sprintf("goroutine %d round %d %s", g, round, e)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// A record is 24 bytes: the trace memo and every driver hold records by
// the hundred thousand, so a field that grows them must be deliberate.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 24 {
		t.Errorf("trace.Record is %d bytes, want 24", n)
	}
}
