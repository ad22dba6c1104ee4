// Package addrmap implements the memory mapping functions of the paper:
// the locality-centric ChRaBgBkRoCo mapping that PIM-specific BIOSes enforce
// (Fig. 7a), the MLP-centric mapping with permutation-based XOR hashing used
// by conventional servers (Fig. 7b), and HetMap, the heterogeneous mapping
// unit that applies a different function per physical address region
// (Section IV-E).
package addrmap

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Geometry describes one DRAM subsystem (one set of DIMMs behind a set of
// channels). All dimensions must be powers of two; DDR4 addressing is
// binary.
type Geometry struct {
	Channels   int // memory channels
	Ranks      int // ranks per channel
	BankGroups int // bank groups per rank
	Banks      int // banks per bank group
	Rows       int // rows per bank
	Cols       int // line-sized (64 B) columns per row
}

// Validate reports a descriptive error when any dimension is not a
// positive power of two.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("addrmap: %s=%d is not a positive power of two", name, v)
		}
		return nil
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"Ranks", g.Ranks},
		{"BankGroups", g.BankGroups},
		{"Banks", g.Banks},
		{"Rows", g.Rows},
		{"Cols", g.Cols},
	} {
		if err := check(d.name, d.v); err != nil {
			return err
		}
	}
	return nil
}

// RowBytes is the size of one DRAM row in bytes.
func (g Geometry) RowBytes() uint64 { return uint64(g.Cols) * mem.LineBytes }

// BankBytes is the capacity of one bank.
func (g Geometry) BankBytes() uint64 { return uint64(g.Rows) * g.RowBytes() }

// TotalBytes is the capacity of the whole subsystem.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Channels*g.Ranks*g.BankGroups*g.Banks) * g.BankBytes()
}

// TotalBanks is the number of independently schedulable banks.
func (g Geometry) TotalBanks() int {
	return g.Channels * g.Ranks * g.BankGroups * g.Banks
}

// BanksPerChannel is ranks x bank groups x banks.
func (g Geometry) BanksPerChannel() int { return g.Ranks * g.BankGroups * g.Banks }

func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %dra x %dbg x %dbk x %drows x %dcols (%.1f GiB)",
		g.Channels, g.Ranks, g.BankGroups, g.Banks, g.Rows, g.Cols,
		float64(g.TotalBytes())/(1<<30))
}

func log2(v int) uint { return uint(bits.TrailingZeros(uint(v))) }

// Loc is a fully decoded DRAM location for one 64-byte line.
type Loc struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int
	Row       int
	Col       int
}

// BankID flattens (rank, bank group, bank) into a per-channel bank index.
// The layout matches Algorithm 1's get_pim_core_id: rank-major, then bank
// group, then bank.
func (l Loc) BankID(g Geometry) int {
	return (l.Rank*g.BankGroups+l.BankGroup)*g.Banks + l.Bank
}

func (l Loc) String() string {
	return fmt.Sprintf("ch%d/ra%d/bg%d/bk%d/ro%d/co%d",
		l.Channel, l.Rank, l.BankGroup, l.Bank, l.Row, l.Col)
}

// Mapper translates a line-aligned physical address (relative to the start
// of its region) into a DRAM location. Implementations must be bijections
// over [0, Geometry().TotalBytes()).
type Mapper interface {
	// Map decodes a region-relative, line-aligned address.
	Map(addr uint64) Loc
	// Unmap is the inverse of Map; it returns the line-aligned address.
	//
	//pimmu:keep the inverse that addrmap's tests hold every Map to
	Unmap(loc Loc) uint64
	// Geometry reports the subsystem dimensions the mapper was built for.
	Geometry() Geometry
	// Name identifies the mapping for reports ("locality", "mlp", ...).
	Name() string
}
