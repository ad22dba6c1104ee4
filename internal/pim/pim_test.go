package pim

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
)

func TestDefaultGeometryMatchesTableI(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumCores(); got != 512 {
		t.Errorf("NumCores = %d, want 512 (Table I)", got)
	}
	if got := g.DRAM.BanksPerChannel() * g.LanesPerBank; got != 128 {
		t.Errorf("cores per channel = %d, want 128", got)
	}
	if got := g.MRAMBytes(); got != 64<<20 {
		t.Errorf("MRAMBytes = %d, want 64 MiB (UPMEM DPU MRAM)", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	g := DefaultGeometry()
	g.LanesPerBank = 3
	if g.Validate() == nil {
		t.Error("LanesPerBank=3 accepted")
	}
	g = DefaultGeometry()
	g.DRAM.Channels = 5
	if g.Validate() == nil {
		t.Error("invalid DRAM geometry accepted")
	}
}

// Algorithm 1's ID formula: ra*banks*bankgroups + bg*banks + bk.
func TestBankCoreIDMatchesAlgorithm1(t *testing.T) {
	g := DefaultGeometry()
	nb, ng := g.DRAM.Banks, g.DRAM.BankGroups
	for ra := 0; ra < g.DRAM.Ranks; ra++ {
		for bg := 0; bg < ng; bg++ {
			for bk := 0; bk < nb; bk++ {
				want := ra*nb*ng + bg*nb + bk
				if got := g.BankCoreID(ra, bg, bk); got != want {
					t.Fatalf("BankCoreID(%d,%d,%d) = %d, want %d", ra, bg, bk, got, want)
				}
			}
		}
	}
}

func TestCoreIDLocRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	for id := 0; id < g.NumCores(); id++ {
		l := g.Loc(id)
		if back := g.coreID(l); back != id {
			t.Fatalf("coreID(Loc(%d)) = %d", id, back)
		}
	}
}

func TestLocFieldsInRange(t *testing.T) {
	g := DefaultGeometry()
	for id := 0; id < g.NumCores(); id++ {
		l := g.Loc(id)
		if l.Channel >= g.DRAM.Channels || l.Rank >= g.DRAM.Ranks ||
			l.BankGroup >= g.DRAM.BankGroups || l.Bank >= g.DRAM.Banks ||
			l.Lane >= g.LanesPerBank {
			t.Fatalf("Loc(%d) = %+v out of range", id, l)
		}
	}
}

func TestLocOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Loc(NumCores) did not panic")
		}
	}()
	g := DefaultGeometry()
	g.Loc(g.NumCores())
}

// Consecutive core IDs must be channel-major: cores 0..127 on channel 0,
// 128..255 on channel 1, and so on — this is what makes the baseline's
// thread-herding congestion (Fig. 6a) possible.
func TestCoreIDChannelMajor(t *testing.T) {
	g := DefaultGeometry()
	per := g.DRAM.BanksPerChannel() * g.LanesPerBank
	for id := 0; id < g.NumCores(); id++ {
		if got := g.Loc(id).Channel; got != id/per {
			t.Fatalf("core %d on channel %d, want %d", id, got, id/per)
		}
	}
}

// mramAddr must land inside the PIM region and decode (under the
// locality-centric PIM mapping) to exactly the core's own bank.
func TestMRAMAddrDecodesToOwnBank(t *testing.T) {
	g := DefaultGeometry()
	pimMap := addrmap.NewLocality(g.DRAM)
	f := func(rawCore, rawOff uint64) bool {
		id := int(rawCore % uint64(g.NumCores()))
		off := rawOff % g.MRAMBytes() &^ 63
		a := g.mramAddr(id, off)
		if mem.SpaceOf(a) != mem.SpacePIM {
			return false
		}
		loc := pimMap.Map(a - mem.PIMBase)
		want := g.Loc(id)
		return loc.Channel == want.Channel && loc.Rank == want.Rank &&
			loc.BankGroup == want.BankGroup && loc.Bank == want.Bank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Different (core, offset) pairs must never map to the same physical
// byte: lanes byte-interleave within each line but remain disjoint (the
// mutual-exclusion property PIM-MS relies on, Section IV-D).
func TestMRAMBytesDisjoint(t *testing.T) {
	g := smallGeometry()
	seen := map[uint64][2]int{}
	// Exhaust the first two lines' worth of every core's MRAM.
	span := uint64(2 * mem.LineBytes / g.LanesPerBank)
	for id := 0; id < g.NumCores(); id++ {
		for off := uint64(0); off < span; off++ {
			a := g.mramAddr(id, off)
			if prev, dup := seen[a]; dup {
				t.Fatalf("cores %d@%d and %d@%d share physical byte 0x%x",
					prev[0], prev[1], id, off, a)
			}
			seen[a] = [2]int{id, int(off)}
		}
	}
}

// A bank's lanes byte-interleave: consecutive LaneBytes-sized slices of a
// line belong to consecutive lanes, and a full bank's transfer occupies a
// contiguous physical range starting at BankBase.
func TestMRAMLaneInterleaving(t *testing.T) {
	g := DefaultGeometry()
	lb := uint64(g.LaneBytes())
	if lb*uint64(g.LanesPerBank) != mem.LineBytes {
		t.Fatalf("LaneBytes=%d does not tile a line", lb)
	}
	// Core at lane l, offset 0 sits l*LaneBytes into its bank's line 0.
	for _, id := range []int{0, 1, 2, 3, 128, 511} {
		l := g.Loc(id)
		want := g.BankBase(id) + uint64(l.Lane)*lb
		if got := g.mramAddr(id, 0); got != want {
			t.Errorf("mramAddr(%d, 0) = 0x%x, want 0x%x", id, got, want)
		}
		// Crossing a lane-slice boundary advances one whole line.
		if got := g.mramAddr(id, lb); got != want+mem.LineBytes {
			t.Errorf("mramAddr(%d, LaneBytes) = 0x%x, want 0x%x", id, got, want+mem.LineBytes)
		}
	}
}

func TestBankLineAddr(t *testing.T) {
	g := DefaultGeometry()
	if got := g.BankLineAddr(0, 0); got != g.BankBase(0) {
		t.Errorf("BankLineAddr(0,0) = 0x%x, want bank base 0x%x", got, g.BankBase(0))
	}
	lb := uint64(g.LaneBytes())
	if got := g.BankLineAddr(0, 3*lb); got != g.BankBase(0)+3*mem.LineBytes {
		t.Errorf("BankLineAddr(0, 3*LaneBytes) = 0x%x, want base+3 lines", got)
	}
	if g.BankLineAddr(0, 0)%mem.LineBytes != 0 {
		t.Error("BankLineAddr not line aligned")
	}
}

func TestMRAMAddrBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mramAddr beyond capacity did not panic")
		}
	}()
	g := DefaultGeometry()
	g.mramAddr(0, g.MRAMBytes())
}

func TestDeviceMRAMReadWrite(t *testing.T) {
	d := NewDevice(smallGeometry())
	data := []byte("hello pim world!")
	d.WriteMRAM(3, 128, data)
	got := d.ReadMRAM(3, 128, len(data))
	if !bytes.Equal(got, data) {
		t.Errorf("ReadMRAM = %q, want %q", got, data)
	}
	// Other cores unaffected.
	if z := d.ReadMRAM(2, 128, len(data)); !bytes.Equal(z, make([]byte, len(data))) {
		t.Error("write leaked into another core's MRAM")
	}
}

func TestDeviceMRAMBounds(t *testing.T) {
	d := NewDevice(smallGeometry())
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds MRAM write did not panic")
		}
	}()
	d.WriteMRAM(0, d.geom.MRAMBytes()-4, make([]byte, 8))
}

// The MRAM range check must hold for offsets near 2^64, where
// offset+length wraps, on both reads and writes.
func TestDeviceMRAMRangeOverflow(t *testing.T) {
	d := NewDevice(smallGeometry())
	mram := d.geom.MRAMBytes()
	for _, tc := range []struct {
		off   uint64
		n     int
		legal bool
	}{
		{0, 2, true},
		{mram - 2, 2, true},
		{mram, 0, true},
		{mram - 1, 2, false},
		{mram + 1, 0, false},
		{math.MaxUint64, 2, false},
		{math.MaxUint64 - 1, 2, false},
	} {
		for _, access := range []func(){
			func() { d.WriteMRAM(0, tc.off, make([]byte, tc.n)) },
			func() { d.ReadMRAM(0, tc.off, tc.n) },
		} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				access()
				return
			}()
			if panicked == tc.legal {
				t.Errorf("%d bytes at 0x%x: panicked=%v, want %v", tc.n, tc.off, panicked, !tc.legal)
			}
		}
	}
}

// Writes spanning chunk boundaries must round-trip, and untouched bytes
// must read as zero.
func TestDeviceMRAMChunkBoundary(t *testing.T) {
	d := NewDevice(DefaultGeometry()) // 64 MiB MRAM, sparse
	off := uint64(mramChunkBytes - 10)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	d.WriteMRAM(5, off, data)
	if got := d.ReadMRAM(5, off, 100); !bytes.Equal(got, data) {
		t.Error("cross-chunk write did not round-trip")
	}
	if got := d.ReadMRAM(5, off+200, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Error("untouched MRAM not zero")
	}
	// A far-away offset on a big device must not allocate the whole MRAM.
	d.WriteMRAM(100, 63<<20, []byte{1, 2, 3})
	if got := d.ReadMRAM(100, 63<<20, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Error("sparse far write lost")
	}
}

func TestKernelTime(t *testing.T) {
	d := NewDevice(smallGeometry())
	// 350 MHz: 350e6 cycles = 1 second.
	if got := d.KernelTime(350_000_000); got != clock.Second-clock.Picos(350_000_000*(int64(clock.Second)%350_000_000)/350_000_000) && got > clock.Second {
		t.Errorf("KernelTime(350M cycles) = %v, want ~1s", got)
	}
	if got := d.KernelTime(350); got != d.KernelTime(350) {
		t.Error("KernelTime not deterministic")
	}
}

func smallGeometry() Geometry {
	return Geometry{
		DRAM: addrmap.Geometry{
			Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 64, Cols: 32,
		},
		LanesPerBank: 2,
	}
}

func TestSmallGeometry(t *testing.T) {
	g := smallGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCores() != 16 {
		t.Errorf("NumCores = %d, want 16", g.NumCores())
	}
}

// Banks groups a shuffled, partial core list: banks come out in
// bank-linear order, each represented by its lowest-lane member, with
// members kept in list order (their PIM-side line order) even when that
// is not lane order. Bank 5 hosts only lanes 1-3, bank 40 lanes 1-2.
func TestBanksGroupsByBank(t *testing.T) {
	g := DefaultGeometry()
	core := func(bank, lane int) int { return bank*g.LanesPerBank + lane }
	cores := []int{
		core(40, 2), core(5, 3), core(0, 2), core(5, 1), core(0, 0),
		core(40, 1), core(0, 3), core(5, 2), core(0, 1),
	}
	want := []Bank{
		{Rep: core(0, 0), Members: []int{2, 4, 6, 8}},
		{Rep: core(5, 1), Members: []int{1, 3, 7}},
		{Rep: core(40, 1), Members: []int{0, 5}},
	}
	if got := g.Banks(cores); !reflect.DeepEqual(got, want) {
		t.Errorf("Banks = %+v, want %+v", got, want)
	}
}
