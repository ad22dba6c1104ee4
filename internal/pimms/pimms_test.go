package pimms

import (
	"testing"
	"testing/quick"

	"repro/internal/addrmap"
	"repro/internal/pim"
)

func geom() pim.Geometry {
	return pim.Geometry{
		DRAM: addrmap.Geometry{
			Channels: 2, Ranks: 2, BankGroups: 2, Banks: 2, Rows: 256, Cols: 128,
		},
		LanesPerBank: 2,
	}
}

// streamsFor builds one stream per core with the given bytes each, bases
// spaced 1 MiB apart.
func streamsFor(g pim.Geometry, bytesPer uint64) []Stream {
	ss := make([]Stream, g.NumCores())
	for i := range ss {
		ss[i] = Stream{Core: i, Base: uint64(i) << 20, Bytes: bytesPer}
	}
	return ss
}

// Every line of every stream must be emitted exactly once (the permutation
// property: PIM-MS reorders but never drops or duplicates).
func TestAlgorithm1IsPermutation(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 1024)
	its := NewAlgorithm1(g, ss)
	seen := map[uint64]bool{}
	total := uint64(0)
	for _, it := range its {
		for {
			x, ok := it.Next()
			if !ok {
				break
			}
			if seen[x.Addr] {
				t.Fatalf("address 0x%x emitted twice", x.Addr)
			}
			seen[x.Addr] = true
			total++
		}
	}
	if want := TotalLines(ss); total != want {
		t.Fatalf("emitted %d lines, want %d", total, want)
	}
}

func TestSequentialIsPermutationInCoreOrder(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 512)
	it := NewSequential(g, ss)
	count := uint64(0)
	prevCore := -1
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		if x.Core < prevCore {
			t.Fatalf("sequential order regressed: core %d after %d", x.Core, prevCore)
		}
		prevCore = x.Core
		count++
	}
	if count != TotalLines(ss) {
		t.Fatalf("emitted %d lines, want %d", count, TotalLines(ss))
	}
}

// Within a stream both iterators must advance addresses sequentially
// (row-buffer locality).
func TestPerStreamAddressesSequential(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 2048)
	its := NewAlgorithm1(g, ss)
	lastOff := map[int]uint64{}
	for _, it := range its {
		for {
			x, ok := it.Next()
			if !ok {
				break
			}
			base := ss[x.Core].Base
			off := x.Addr - base
			if prev, seen := lastOff[x.Core]; seen && off != prev+Granularity {
				t.Fatalf("core %d: offset jumped from 0x%x to 0x%x", x.Core, prev, off)
			}
			lastOff[x.Core] = off
		}
	}
}

// Algorithm 1's central property: consecutive granules on one channel
// rotate across banks/bank-groups, so back-to-back column commands avoid
// the same bank whenever more than one has pending work.
func TestAlgorithm1RotatesBanks(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 1024)
	its := NewAlgorithm1(g, ss)
	for ch, it := range its {
		var prev *pim.CoreLoc
		for checked := 0; checked < 64; checked++ {
			x, ok := it.Next()
			if !ok {
				break
			}
			loc := g.Loc(x.Core)
			if prev != nil && loc == *prev {
				t.Fatalf("ch %d: consecutive granules from the same core: %+v", ch, loc)
			}
			prev = &loc
		}
	}
}

// The first sweep must touch every stream once before revisiting any —
// maximal bank-level parallelism from the first request.
func TestAlgorithm1FirstSweepCoversAllStreams(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 1024)
	its := NewAlgorithm1(g, ss)
	perCh := g.DRAM.BanksPerChannel() * g.LanesPerBank
	for ch, it := range its {
		seen := map[int]bool{}
		for i := 0; i < perCh; i++ {
			x, ok := it.Next()
			if !ok {
				t.Fatalf("ch %d exhausted after %d granules", ch, i)
			}
			if seen[x.Core] {
				t.Fatalf("ch %d revisited core %d before finishing the sweep", ch, x.Core)
			}
			seen[x.Core] = true
		}
	}
}

// Each channel's iterator must only contain that channel's cores.
func TestAlgorithm1ChannelPartition(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 256)
	its := NewAlgorithm1(g, ss)
	for ch, it := range its {
		for {
			x, ok := it.Next()
			if !ok {
				break
			}
			if got := g.Loc(x.Core).Channel; got != ch {
				t.Fatalf("iterator %d emitted core %d of channel %d", ch, x.Core, got)
			}
		}
	}
}

// Sweep order follows Algorithm 1 lines 29-31: bank-major, then rank,
// then bank group.
func TestAlgorithm1SweepOrder(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 256)
	its := NewAlgorithm1(g, ss)
	it := its[0]
	var prev pim.CoreLoc
	first := true
	for i := 0; i < g.DRAM.BanksPerChannel()*g.LanesPerBank; i++ {
		x, _ := it.Next()
		loc := g.Loc(x.Core)
		if !first {
			pk := ((prev.Bank*g.DRAM.Ranks+prev.Rank)*g.DRAM.BankGroups+prev.BankGroup)*g.LanesPerBank + prev.Lane
			ck := ((loc.Bank*g.DRAM.Ranks+loc.Rank)*g.DRAM.BankGroups+loc.BankGroup)*g.LanesPerBank + loc.Lane
			if ck <= pk {
				t.Fatalf("sweep order violated: %+v then %+v", prev, loc)
			}
		}
		prev, first = loc, false
	}
}

func TestRemainingCountdown(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 512)
	it := NewSequential(g, ss)
	want := it.Remaining()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		want--
		if it.Remaining() != want {
			t.Fatalf("Remaining = %d, want %d", it.Remaining(), want)
		}
	}
	if want != 0 {
		t.Fatalf("iterator ended with %d lines unemitted", want)
	}
}

// Property: for random per-core sizes, both iterators emit identical
// address multisets — they are reorderings of each other.
func TestIteratorsEmitSameMultiset(t *testing.T) {
	g := geom()
	f := func(seed uint8) bool {
		x := uint64(seed) + 1
		var ss []Stream
		for i := 0; i < g.NumCores(); i++ {
			x = x*2862933555777941757 + 3037000493
			ss = append(ss, Stream{Core: i, Base: uint64(i) << 20, Bytes: (x%8 + 1) * Granularity})
		}
		collect := func(its []Iterator) map[uint64]int {
			m := map[uint64]int{}
			for _, it := range its {
				for {
					x, ok := it.Next()
					if !ok {
						break
					}
					m[x.Addr]++
				}
			}
			return m
		}
		var a1 []Iterator
		for _, it := range NewAlgorithm1(g, ss) {
			a1 = append(a1, it)
		}
		ma := collect(a1)
		ms := collect([]Iterator{NewSequential(g, ss)})
		if len(ma) != len(ms) {
			return false
		}
		for k, v := range ma {
			if ms[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStreamValidate(t *testing.T) {
	good := Stream{Core: 0, Base: 64, Bytes: 128}
	if err := good.Validate(); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
	for _, bad := range []Stream{
		{Core: 0, Base: 0, Bytes: 0},
		{Core: 0, Base: 0, Bytes: 63},
		{Core: 0, Base: 1, Bytes: 64},
	} {
		if bad.Validate() == nil {
			t.Errorf("invalid stream accepted: %+v", bad)
		}
	}
}

func TestInvalidStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAlgorithm1 with invalid stream did not panic")
		}
	}()
	NewAlgorithm1(geom(), []Stream{{Core: 0, Bytes: 3}})
}

func TestEmptyIterators(t *testing.T) {
	g := geom()
	for _, it := range NewAlgorithm1(g, nil) {
		if _, ok := it.Next(); ok {
			t.Error("empty Algorithm1 iterator emitted a granule")
		}
		if it.Remaining() != 0 {
			t.Error("empty iterator has nonzero Remaining")
		}
	}
	s := NewSequential(g, nil)
	if _, ok := s.Next(); ok {
		t.Error("empty Sequential iterator emitted a granule")
	}
}

// ChannelRR must alternate channels per granule while staying in core
// order within each channel.
func TestChannelRRAlternatesChannels(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 512)
	it := NewChannelRR(g, ss)
	lastCore := make([]int, g.DRAM.Channels)
	for i := range lastCore {
		lastCore[i] = -1
	}
	prevCh := -1
	count := uint64(0)
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		ch := g.Loc(x.Core).Channel
		if prevCh >= 0 && ch == prevCh {
			t.Fatalf("granule %d stayed on channel %d while the other had work", count, ch)
		}
		if x.Core < lastCore[ch] {
			t.Fatalf("channel %d regressed from core %d to %d", ch, lastCore[ch], x.Core)
		}
		lastCore[ch] = x.Core
		prevCh = ch
		count++
	}
	if count != TotalLines(ss) {
		t.Fatalf("emitted %d granules, want %d", count, TotalLines(ss))
	}
}

// ChannelRR emits the same multiset as the other orders.
func TestChannelRRSameMultiset(t *testing.T) {
	g := geom()
	ss := streamsFor(g, 256)
	seen := map[uint64]bool{}
	it := NewChannelRR(g, ss)
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		if seen[x.Addr] {
			t.Fatalf("duplicate address 0x%x", x.Addr)
		}
		seen[x.Addr] = true
	}
	if uint64(len(seen)) != TotalLines(ss) {
		t.Fatalf("emitted %d unique granules, want %d", len(seen), TotalLines(ss))
	}
}
