// Package pim models the bank-level PIM device: the geometry that maps
// PIM core IDs to DRAM banks (and byte lanes within a bank), each core's
// private MRAM as a functional byte store, and an analytic DPU execution
// model for kernel time.
//
// Following UPMEM's design (Section II-C): the device is a set of DDR4
// DIMMs on their own channels; every bank hosts PIM cores; a core can only
// access its own bank's memory; and the host reaches MRAM through ordinary
// (non-cacheable) memory writes in the PIM physical address region.
package pim

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
)

// Geometry describes the PIM device: the DRAM geometry of its DIMMs plus
// the number of PIM cores sharing one bank address on different byte
// lanes.
//
// Table I pairs "4 channels, 2 ranks" (128 bank addresses) with "512 PIM
// cores"; the x4 factor is the chip/lane dimension (see DESIGN.md). Lanes
// share a bank's row buffer, so they add capacity slicing but no
// bank-level parallelism — exactly like the chips of a real DIMM.
type Geometry struct {
	DRAM         addrmap.Geometry
	LanesPerBank int
}

// DefaultGeometry is the Table I PIM system: DDR4-2400, 4 channels,
// 2 ranks per channel, 512 PIM cores.
func DefaultGeometry() Geometry {
	return Geometry{
		DRAM: addrmap.Geometry{
			Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4,
			Rows: 32768, Cols: 128,
		},
		LanesPerBank: 4,
	}
}

// Validate reports configuration errors.
func (g Geometry) Validate() error {
	if err := g.DRAM.Validate(); err != nil {
		return err
	}
	if g.LanesPerBank <= 0 || g.LanesPerBank&(g.LanesPerBank-1) != 0 {
		return fmt.Errorf("pim: LanesPerBank=%d not a positive power of two", g.LanesPerBank)
	}
	if uint64(g.LanesPerBank) > g.DRAM.BankBytes()/uint64(mem.LineBytes) {
		return fmt.Errorf("pim: more lanes than bank lines")
	}
	return nil
}

// NumCores is the total PIM core (DPU) count.
func (g Geometry) NumCores() int {
	return g.DRAM.TotalBanks() * g.LanesPerBank
}

// MRAMBytes is each core's private memory capacity (its slice of a bank).
func (g Geometry) MRAMBytes() uint64 {
	return g.DRAM.BankBytes() / uint64(g.LanesPerBank)
}

// CoreLoc identifies a PIM core by its physical position.
type CoreLoc struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int
	Lane      int
}

// BankCoreID implements Algorithm 1's get_pim_core_id: the per-channel,
// per-lane-0 core index derived from (rank, bank group, bank).
func (g Geometry) BankCoreID(ra, bg, bk int) int {
	return ra*g.DRAM.Banks*g.DRAM.BankGroups + bg*g.DRAM.Banks + bk
}

// coreID flattens a CoreLoc into a global core index: channel-major, then
// Algorithm 1's (rank, bank group, bank) order, lanes innermost. With the
// locality-centric PIM mapping this makes consecutive core IDs occupy
// consecutive regions of the PIM physical address space. It is the
// reference inverse that the tests hold Loc to.
func (g Geometry) coreID(l CoreLoc) int {
	bankID := g.BankCoreID(l.Rank, l.BankGroup, l.Bank)
	return (l.Channel*g.DRAM.BanksPerChannel()+bankID)*g.LanesPerBank + l.Lane
}

// Loc is the inverse of coreID.
func (g Geometry) Loc(coreID int) CoreLoc {
	if coreID < 0 || coreID >= g.NumCores() {
		panic(fmt.Sprintf("pim: core ID %d out of range [0,%d)", coreID, g.NumCores()))
	}
	lane := coreID % g.LanesPerBank
	bank := coreID / g.LanesPerBank
	bankID := bank % g.DRAM.BanksPerChannel()
	ch := bank / g.DRAM.BanksPerChannel()
	bk := bankID % g.DRAM.Banks
	bg := bankID / g.DRAM.Banks % g.DRAM.BankGroups
	ra := bankID / (g.DRAM.Banks * g.DRAM.BankGroups)
	return CoreLoc{Channel: ch, Rank: ra, BankGroup: bg, Bank: bk, Lane: lane}
}

// LaneBytes is each core's share of one 64-byte line of its bank: the
// chips (lanes) of a DIMM split every burst byte-wise, so a line at bank
// offset k carries LaneBytes bytes for every lane simultaneously (this is
// the physical reason the transpose of Fig. 3 exists).
func (g Geometry) LaneBytes() int { return mem.LineBytes / g.LanesPerBank }

// BankLinear flattens a core's bank position into the bank index used by
// the locality-centric PIM address mapping (channel-major, then
// Algorithm 1's rank/bank-group/bank order).
func (g Geometry) BankLinear(coreID int) int {
	l := g.Loc(coreID)
	return l.Channel*g.DRAM.BanksPerChannel() + g.BankCoreID(l.Rank, l.BankGroup, l.Bank)
}

// Bank is one PIM bank's share of a transfer's core list.
type Bank struct {
	// Rep is the member on the lowest lane; its BankLineAddr is the
	// bank's address.
	Rep int
	// Members are the positions in the core list of the cores this bank
	// hosts, in list order: member k's data is PIM-side line k of each
	// line group.
	Members []int
}

// Banks groups cores by PIM bank, in bank-linear order. Bank-linear IDs
// are channel-major, so both the software transfer and the DCE walk
// channel 0's banks first.
func (g Geometry) Banks(cores []int) []Bank {
	byBank := make([]Bank, g.DRAM.TotalBanks())
	for i, c := range cores {
		b := &byBank[g.BankLinear(c)]
		if len(b.Members) == 0 || g.Loc(c).Lane < g.Loc(b.Rep).Lane {
			b.Rep = c
		}
		b.Members = append(b.Members, i)
	}
	banks := byBank[:0]
	for _, b := range byBank {
		if len(b.Members) > 0 {
			banks = append(banks, b)
		}
	}
	return banks
}

// BankBase is the physical address of the first byte of a core's bank in
// the PIM region.
func (g Geometry) BankBase(coreID int) uint64 {
	return mem.PIMBase + uint64(g.BankLinear(coreID))*g.DRAM.BankBytes()
}

// mramAddr computes the physical address (in the PIM region) of a byte
// offset within the given core's MRAM: the address model's specification,
// which the tests check against the PIM mapping. Lanes of one bank are
// byte-interleaved within each 64-byte line: line k of the bank holds
// bytes [k*LaneBytes, (k+1)*LaneBytes) of every lane's MRAM. Consequently
// a core's MRAM is not a contiguous physical range — but a bank's is,
// which is what lets both the DCE and the runtime stream whole banks with
// full row-buffer locality.
func (g Geometry) mramAddr(coreID int, offset uint64) uint64 {
	if offset >= g.MRAMBytes() {
		panic(fmt.Sprintf("pim: MRAM offset 0x%x beyond capacity 0x%x", offset, g.MRAMBytes()))
	}
	l := g.Loc(coreID)
	lane := uint64(g.LaneBytes())
	line := offset / lane
	return g.BankBase(coreID) + line*mem.LineBytes + uint64(l.Lane)*lane + offset%lane
}

// BankLineAddr is the physical address of line index k of a core's bank.
// A transfer of S bytes per core to the L lanes of one bank occupies
// lines [startOffset/LaneBytes, ...) — S*L bytes of contiguous physical
// addresses.
func (g Geometry) BankLineAddr(coreID int, mramOffset uint64) uint64 {
	return g.BankBase(coreID) + mramOffset/uint64(g.LaneBytes())*mem.LineBytes
}

// DPUClock is the UPMEM DPU core frequency.
const DPUClock = 350 * clock.MHz

// mramChunkBytes is the sparse-allocation granule for functional MRAM:
// only the 64 KiB chunks a program actually touches are backed by real
// memory, so a 512-core device (32 GiB of MRAM capacity) costs only what
// the workload writes.
const mramChunkBytes = 64 << 10

// Device is the PIM device: geometry plus per-core functional MRAM and a
// kernel-time model. MRAM is allocated sparsely in chunks on first touch.
type Device struct {
	geom   Geometry
	chunks map[uint64][]byte // key: core<<24 | chunk index
	dom    clock.Domain
}

// NewDevice builds a device; it panics on invalid geometry.
func NewDevice(g Geometry) *Device {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if g.MRAMBytes()/mramChunkBytes >= 1<<24 {
		panic("pim: MRAM too large for chunk keying")
	}
	return &Device{geom: g, chunks: make(map[uint64][]byte), dom: clock.NewDomain(DPUClock)}
}

func (d *Device) checkRange(coreID int, offset, length uint64) {
	if coreID < 0 || coreID >= d.geom.NumCores() {
		panic(fmt.Sprintf("pim: core ID %d out of range", coreID))
	}
	if mram := d.geom.MRAMBytes(); offset > mram || length > mram-offset {
		panic(fmt.Sprintf("pim: MRAM access of 0x%x bytes at 0x%x out of bounds", length, offset))
	}
}

// chunk returns the backing chunk, allocating when alloc is set; a nil
// return means an untouched (all-zero) chunk.
func (d *Device) chunk(coreID int, idx uint64, alloc bool) []byte {
	key := uint64(coreID)<<24 | idx
	c := d.chunks[key]
	if c == nil && alloc {
		c = make([]byte, mramChunkBytes)
		d.chunks[key] = c
	}
	return c
}

// WriteMRAM copies data into core's MRAM at offset.
func (d *Device) WriteMRAM(coreID int, offset uint64, data []byte) {
	d.checkRange(coreID, offset, uint64(len(data)))
	for len(data) > 0 {
		idx := offset / mramChunkBytes
		in := offset % mramChunkBytes
		n := copy(d.chunk(coreID, idx, true)[in:], data)
		data = data[n:]
		offset += uint64(n)
	}
}

// ReadMRAM copies length bytes from core's MRAM at offset; untouched
// bytes read as zero.
func (d *Device) ReadMRAM(coreID int, offset uint64, length int) []byte {
	d.checkRange(coreID, offset, uint64(length))
	out := make([]byte, length)
	dst := out
	for len(dst) > 0 {
		idx := offset / mramChunkBytes
		in := offset % mramChunkBytes
		span := mramChunkBytes - in
		if span > uint64(len(dst)) {
			span = uint64(len(dst))
		}
		if c := d.chunk(coreID, idx, false); c != nil {
			copy(dst[:span], c[in:in+span])
		}
		dst = dst[span:]
		offset += span
	}
	return out
}

// KernelTime converts a per-core DPU cycle count into wall-clock time.
// PIM kernels run all cores in lockstep SPMD, so the kernel time is the
// slowest core's cycles at the DPU clock.
func (d *Device) KernelTime(cycles int64) clock.Picos {
	return d.dom.Duration(cycles)
}
