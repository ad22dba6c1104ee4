package dram

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/sim"
)

// BenchmarkEngineChannelConflicts measures the FR-FCFS scan where it
// works hardest: one channel on the plain engine fed a uniform-random
// stream over every bank and row of both ranks, 30% writes, so nearly
// every request is a row conflict and both queues sit near full. One op
// is one request enqueued, scheduled and completed; the steady state
// allocates nothing.
func BenchmarkEngineChannelConflicts(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels = 1
	g := cfg.Geometry
	eng := sim.New()
	c := MustNew(eng, cfg, "bench").Channel(0)

	// A fixed table of random targets and a request ring larger than the
	// most requests ever outstanding (both queues plus bursts in flight).
	const nLocs = 4096
	locs := make([]addrmap.Loc, nLocs)
	kinds := make([]mem.Kind, nLocs)
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := range locs {
		locs[i] = addrmap.Loc{Rank: rnd(g.Ranks), BankGroup: rnd(g.BankGroups),
			Bank: rnd(g.Banks), Row: rnd(g.Rows), Col: rnd(g.Cols)}
		if rnd(10) < 3 {
			kinds[i] = mem.Write
		}
	}
	ring := make([]mem.Req, 16*cfg.QueueDepth)

	sent := 0
	period := cfg.Timing.Domain().Period()
	var refill func()
	refill = func() {
		for sent < b.N {
			req := &ring[sent%len(ring)]
			*req = mem.Req{Addr: uint64(sent) * mem.LineBytes, Kind: kinds[sent%nLocs]}
			if !c.TryEnqueue(req, locs[sent%nLocs]) {
				break
			}
			sent++
		}
		if sent < b.N {
			eng.After(16*period, refill)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	refill()
	eng.Run()
	if st := c.Stats(); st.Reads+st.Writes != uint64(b.N) {
		b.Fatalf("served %d requests, want %d", st.Reads+st.Writes, b.N)
	}
}
