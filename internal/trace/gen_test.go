package trace

import (
	"math"
	"testing"

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
// configuration.
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
		b := MustGenerate(p, cfg)
		if !equalRecords(a, b) {
			t.Errorf("%s: same config produced different streams", p)
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
		"theta":        func(c *GenConfig) { c.ZipfTheta = 1.5 },
		"theta-nan":    func(c *GenConfig) { c.ZipfTheta = math.NaN() },
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
