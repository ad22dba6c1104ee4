package memsys

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// mustNew is New for the tests' static configurations.
func mustNew(eng *sim.Engine, cfg Config) *System {
	s, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// decode is the HetMap location of addr, after the OS page translation
// for DRAM-region addresses.
func decode(s *System, addr uint64) addrmap.Loc {
	_, loc := s.Het.Decode(s.physical(addr))
	return loc
}

func smallConfig(mode MappingMode) Config {
	g := addrmap.Geometry{Channels: 2, Ranks: 1, BankGroups: 4, Banks: 4, Rows: 256, Cols: 128}
	dc := dram.DefaultConfig()
	dc.Geometry = g
	pc := dram.DefaultConfig()
	pc.Geometry = g
	return Config{
		DRAM:          dc,
		PIM:           pc,
		LLC:           cache.Config{SizeBytes: 256 * 1024, Ways: 8},
		LLCHitLatency: 12 * clock.Nanosecond,
		Mapping:       mode,
	}
}

func TestLLCHitLatency(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapLocalityBoth))
	var first, second clock.Picos
	r1 := &mem.Req{Addr: 0x1000, Kind: mem.Read, Cacheable: true,
		OnDone: func(now clock.Picos) { first = now }}
	s.TryEnqueue(r1)
	eng.Run()
	r2 := &mem.Req{Addr: 0x1000, Kind: mem.Read, Cacheable: true,
		OnDone: func(now clock.Picos) { second = now }}
	start := eng.Now()
	s.TryEnqueue(r2)
	eng.Run()
	if first < 20*clock.Nanosecond {
		t.Errorf("cold miss completed in %v; should pay DRAM latency", first)
	}
	if second-start != 12*clock.Nanosecond {
		t.Errorf("LLC hit latency = %v, want 12ns", second-start)
	}
	if st := s.LLC.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("LLC stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestPIMRequestsBypassCache(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapLocalityBoth))
	done := 0
	for i := 0; i < 4; i++ {
		r := &mem.Req{Addr: mem.PIMBase + uint64(i*64), Kind: mem.Write,
			OnDone: func(clock.Picos) { done++ }}
		if !s.TryEnqueue(r) {
			t.Fatal("PIM write rejected by empty system")
		}
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d of 4 PIM writes", done)
	}
	if st := s.LLC.Stats(); st.Hits+st.Misses != 0 {
		t.Error("PIM requests touched the LLC")
	}
	if got := s.PIM.Stats().BytesWritten(); got != 4*64 {
		t.Errorf("PIM bytes written = %d, want 256", got)
	}
	if got := s.DRAM.Stats().BytesWritten(); got != 0 {
		t.Errorf("DRAM saw %d bytes; PIM traffic leaked", got)
	}
}

func TestNonCacheableDRAMBypassesCache(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapLocalityBoth))
	r := &mem.Req{Addr: 0x4000, Kind: mem.Write, Cacheable: false}
	s.TryEnqueue(r)
	eng.Run()
	if st := s.LLC.Stats(); st.Hits+st.Misses != 0 {
		t.Error("non-cacheable DRAM write touched the LLC")
	}
	if got := s.DRAM.Stats().BytesWritten(); got != 64 {
		t.Errorf("DRAM bytes written = %d, want 64", got)
	}
}

func TestWriteMissFillsLine(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapLocalityBoth))
	// Write-allocate: a cacheable store miss fetches the line (one DRAM
	// read), then a later eviction writes it back.
	r := &mem.Req{Addr: 0x8000, Kind: mem.Write, Cacheable: true}
	s.TryEnqueue(r)
	eng.Run()
	if got := s.DRAM.Stats().BytesRead(); got != 64 {
		t.Errorf("fill read = %d bytes, want 64", got)
	}
	if !s.LLC.Contains(0x8000) {
		t.Error("store miss did not allocate the line")
	}
}

func TestDirtyEvictionGeneratesWriteback(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig(MapLocalityBoth)
	cfg.LLC = cache.Config{SizeBytes: 8 * 1024, Ways: 2} // 64 sets, tiny
	s := mustNew(eng, cfg)
	setStride := uint64(64 * 64) // sets * line
	// Dirty a line, then stream enough conflicting lines to evict it.
	s.TryEnqueue(&mem.Req{Addr: 0, Kind: mem.Write, Cacheable: true})
	eng.Run()
	for i := uint64(1); i <= 2; i++ {
		s.TryEnqueue(&mem.Req{Addr: i * setStride, Kind: mem.Read, Cacheable: true})
		eng.Run()
	}
	if wb := s.LLC.Stats().Writebacks; wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
	if got := s.DRAM.Stats().BytesWritten(); got != 64 {
		t.Errorf("DRAM writeback bytes = %d, want 64", got)
	}
}

func TestMappingModesRouteDifferently(t *testing.T) {
	// The same physical address must hit different channels under
	// locality-both vs hetmap (MLP) mapping.
	addr := uint64(3 * 256) // 256B-aligned offset lands on a non-zero MLP channel
	eng1 := sim.New()
	s1 := mustNew(eng1, smallConfig(MapLocalityBoth))
	locLoc := decode(s1, addr)
	eng2 := sim.New()
	s2 := mustNew(eng2, smallConfig(MapHetMap))
	mlpLoc := decode(s2, addr)
	if locLoc.Channel != 0 {
		t.Errorf("locality mapping put low address on channel %d, want 0", locLoc.Channel)
	}
	if mlpLoc.Channel == 0 {
		t.Error("MLP mapping kept 768B offset on channel 0; channel bits should be near LSB")
	}
	// PIM region must stay locality-mapped under HetMap.
	pimLoc := decode(s2, mem.PIMBase+addr)
	if pimLoc.Channel != 0 {
		t.Errorf("HetMap PIM region channel = %d, want locality-mapped 0", pimLoc.Channel)
	}
}

func TestHetMapNoHashMode(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapHetMapNoHash))
	r, ok := s.Het.Lookup(0)
	if !ok || r.Name != "dram" {
		t.Fatalf("address 0 in region %q (found %v), want dram", r.Name, ok)
	}
	if got := r.Mapper.Name(); got != "mlp-nohash" {
		t.Errorf("dram mapper = %q, want mlp-nohash", got)
	}
}

func TestBackpressurePropagates(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig(MapLocalityBoth)
	cfg.DRAM.QueueDepth = 4
	cfg.DRAM.WriteDrainHi = 3
	cfg.DRAM.WriteDrainLo = 1
	s := mustNew(eng, cfg)
	// Saturate one channel's read queue without running the engine.
	fails := 0
	for i := 0; i < 10; i++ {
		r := &mem.Req{Addr: uint64(i * 64), Kind: mem.Read, Cacheable: false}
		if !s.TryEnqueue(r) {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("queue never filled")
	}
	woke := false
	s.WaitSpace(func() { woke = true })
	eng.Run()
	if !woke {
		t.Error("WaitSpace never fired after drain")
	}
}

// The port tap must see every accepted request exactly once — across
// the non-cacheable, LLC-hit and LLC-miss paths — and never a rejected
// one.
func TestTapSeesEveryAcceptedRequestOnce(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig(MapLocalityBoth)
	cfg.DRAM.QueueDepth = 4
	cfg.DRAM.WriteDrainHi = 3
	cfg.DRAM.WriteDrainLo = 1
	s := mustNew(eng, cfg)
	var tapped []uint64
	s.SetTap(func(now clock.Picos, r *mem.Req) {
		if now != eng.Now() {
			t.Errorf("tap at %v, engine at %v", now, eng.Now())
		}
		tapped = append(tapped, r.Addr)
	})
	accepted := 0
	enqueue := func(r *mem.Req) {
		if s.TryEnqueue(r) {
			accepted++
		}
		eng.Run()
	}
	enqueue(&mem.Req{Addr: 0x1000, Kind: mem.Read, Cacheable: true})  // miss
	enqueue(&mem.Req{Addr: 0x1000, Kind: mem.Read, Cacheable: true})  // hit
	enqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: false}) // non-cacheable
	enqueue(&mem.Req{Addr: mem.PIMBase, Kind: mem.Write})             // PIM region
	if accepted != 4 || len(tapped) != accepted {
		t.Fatalf("tap saw %d requests, %d accepted", len(tapped), accepted)
	}
	// Saturate a queue: rejections must not reach the tap.
	before := len(tapped)
	rejected := 0
	for i := 0; i < 10; i++ {
		if !s.TryEnqueue(&mem.Req{Addr: uint64(i * 64), Kind: mem.Read, Cacheable: false}) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("queue never filled")
	}
	if got := len(tapped) - before; got != 10-rejected {
		t.Errorf("tap saw %d of %d accepted requests under pressure", got, 10-rejected)
	}
	// Detach: no further observations.
	eng.Run()
	s.SetTap(nil)
	after := len(tapped)
	s.TryEnqueue(&mem.Req{Addr: 0x3000, Kind: mem.Read, Cacheable: false})
	if len(tapped) != after {
		t.Error("detached tap still observing")
	}
}

func TestWaitSpaceWithoutFailureFiresImmediately(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapLocalityBoth))
	woke := false
	s.WaitSpace(func() { woke = true })
	eng.Run()
	if !woke {
		t.Error("WaitSpace without prior rejection never fired")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	eng := sim.New()
	if _, err := New(eng, DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestMappingModeString(t *testing.T) {
	names := map[MappingMode]string{
		MapLocalityBoth: "locality-both",
		MapHetMap:       "hetmap",
		MapMLPBoth:      "mlp-both",
		MapHetMapNoHash: "hetmap-nohash",
		MappingMode(99): "unknown",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", m, got, want)
		}
	}
}

func TestIdle(t *testing.T) {
	eng := sim.New()
	s := mustNew(eng, smallConfig(MapLocalityBoth))
	if !s.Idle() {
		t.Error("fresh system not idle")
	}
	s.TryEnqueue(&mem.Req{Addr: 0, Kind: mem.Read, Cacheable: false})
	if s.Idle() {
		t.Error("system idle with queued request")
	}
	eng.Run()
	if !s.Idle() {
		t.Error("system not idle after drain")
	}
}

func TestPageMapBijective(t *testing.T) {
	m := NewPageMap(1<<30, 1<<30, 42) // 256K frames
	seen := make(map[uint64]bool, 1<<18)
	for f := uint64(0); f < 1<<18; f++ {
		p := m.Frame(f, 0)
		if p >= 1<<18 {
			t.Fatalf("Frame(%d) = %d out of range", f, p)
		}
		if seen[p] {
			t.Fatalf("Frame collision at %d", p)
		}
		seen[p] = true
	}
}

func TestPageMapPreservesOffsets(t *testing.T) {
	m := NewPageMap(1<<30, 1<<30, 42)
	a := m.Translate(0x12345)
	b := m.Translate(0x12345 + 64)
	if b != a+64 {
		t.Errorf("intra-page offsets not preserved: 0x%x vs 0x%x", a, b)
	}
	if m.Translate(0x12345)&0xFFF != 0x345 {
		t.Error("page offset changed")
	}
}

func TestPageMapScatters(t *testing.T) {
	m := NewPageMap(1<<30, 1<<30, 42)
	same := 0
	for f := uint64(0); f < 1024; f++ {
		if m.Frame(f, 0) == f {
			same++
		}
	}
	if same > 10 {
		t.Errorf("%d of 1024 frames unmoved; permutation not scattering", same)
	}
}

func TestPageScatterOnlyAffectsDRAM(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig(MapLocalityBoth)
	cfg.PageScatter = true
	s := mustNew(eng, cfg)
	// PIM decode must be unaffected by paging.
	pimLoc := decode(s, mem.PIMBase)
	if pimLoc != (addrmap.Loc{}) {
		t.Errorf("PIM base decoded to %v under paging, want zero loc", pimLoc)
	}
	// DRAM decode must differ from the unpaged system for most addresses.
	cfg2 := smallConfig(MapLocalityBoth)
	cfg2.PageScatter = false
	s2 := mustNew(sim.New(), cfg2)
	diff := 0
	for i := uint64(0); i < 64; i++ {
		a := i << 12
		l1 := decode(s, a)
		l2 := decode(s2, a)
		if l1 != l2 {
			diff++
		}
	}
	if diff < 32 {
		t.Errorf("page scatter changed only %d of 64 page decodes", diff)
	}
}
