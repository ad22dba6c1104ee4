package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func small() Config { return Config{SizeBytes: 64 * 1024, Ways: 4} } // 256 sets

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if (Config{SizeBytes: 0, Ways: 4}).Validate() == nil {
		t.Error("zero size accepted")
	}
	if (Config{SizeBytes: 3 * 64, Ways: 2}).Validate() == nil {
		t.Error("non power-of-two sets accepted")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	c := New(DefaultConfig())
	if c.nSets != 8192 {
		t.Errorf("8MB/16-way LLC has %d sets, want 8192", c.nSets)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(small())
	if c.Access(0x1000, false); c.Stats().Hits != 0 {
		t.Error("first access hit an empty cache")
	}
	if c.Access(0x1000, false); c.Stats().Hits != 1 {
		t.Error("second access to same line missed")
	}
	if c.Access(0x1010, false); c.Stats().Hits != 2 {
		t.Error("access within the same 64B line missed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", s)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := small()
	c := New(cfg)
	sets := uint64(c.nSets)
	setStride := sets * mem.LineBytes // same set, next tag
	// Fill all 4 ways of set 0.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	// Touch way 0 to make way 1 the LRU victim.
	c.Access(0, false)
	// Allocate a 5th line: must evict tag 1, keep tag 0.
	c.Access(4*setStride, false)
	if !c.Contains(0) {
		t.Error("recently used line was evicted")
	}
	if c.Contains(1 * setStride) {
		t.Error("LRU line survived eviction")
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	cfg := small()
	c := New(cfg)
	sets := uint64(c.nSets)
	setStride := sets * mem.LineBytes
	c.Access(0, true) // dirty line, tag 0
	for i := uint64(1); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	res := c.Access(4*setStride, false) // evicts tag 0
	if !res.HasWriteback {
		t.Fatal("dirty eviction produced no writeback")
	}
	if res.Writeback != 0 {
		t.Errorf("writeback address = 0x%x, want 0x0", res.Writeback)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := small()
	c := New(cfg)
	sets := uint64(c.nSets)
	setStride := sets * mem.LineBytes
	for i := uint64(0); i < 5; i++ {
		if res := c.Access(i*setStride, false); res.HasWriteback {
			t.Error("clean eviction produced a writeback")
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestWriteMakesDirty(t *testing.T) {
	cfg := small()
	c := New(cfg)
	sets := uint64(c.nSets)
	setStride := sets * mem.LineBytes
	c.Access(0, false) // clean fill
	c.Access(0, true)  // hit-write dirties it
	for i := uint64(1); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	if res := c.Access(4*setStride, false); !res.HasWriteback {
		t.Error("hit-write did not dirty the line")
	}
}

// Property: the reconstructed writeback address always maps to the same
// set as the line that evicted it.
func TestWritebackAddressSetInvariant(t *testing.T) {
	cfg := small()
	c := New(cfg)
	f := func(raw uint64) bool {
		addr := raw % (1 << 30) &^ 63
		res := c.Access(addr, true)
		if !res.HasWriteback {
			return true
		}
		return res.Writeback/mem.LineBytes%uint64(c.nSets) ==
			addr/mem.LineBytes%uint64(c.nSets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// A working set smaller than the cache must converge to a ~100% hit rate.
func TestSmallWorkingSetHits(t *testing.T) {
	c := New(small())
	rng := rand.New(rand.NewSource(1))
	lines := make([]uint64, 256) // 16 KB working set in a 64 KB cache
	for i := range lines {
		lines[i] = uint64(i) * mem.LineBytes
	}
	for pass := 0; pass < 10; pass++ {
		for _, a := range lines {
			c.Access(a, rng.Intn(2) == 0)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.89 {
		t.Errorf("small working set hit rate = %.3f, want > 0.89", hr)
	}
}

// A streaming access pattern much larger than the cache must miss nearly
// always — this is what makes transfer reads DRAM-bound.
func TestStreamingMisses(t *testing.T) {
	c := New(small())
	for a := uint64(0); a < 16<<20; a += mem.LineBytes {
		c.Access(a, false)
	}
	if hr := c.Stats().HitRate(); hr > 0.01 {
		t.Errorf("streaming hit rate = %.3f, want ~0", hr)
	}
}

func TestHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate != 0")
	}
}
