package addrmap

import (
	"fmt"

	"repro/internal/mem"
)

// Locality is the locality-centric ChRaBgBkRoCo mapping employed by
// PIM-specific BIOS updates (paper Fig. 7a). Reading the physical address
// from its most significant bit downwards, the channel bits come first,
// then rank, bank group, bank, row, and finally column. Consecutive
// addresses therefore stay inside a single row of a single bank for an
// entire row's worth of data, and inside a single channel for an entire
// channel's worth — which is exactly what keeps every PIM core's address
// range confined to its own bank, and exactly what destroys memory-level
// parallelism for ordinary streaming (Fig. 8).
type Locality struct {
	g Geometry

	colBits, rowBits, bankBits, bgBits, rankBits uint
}

// NewLocality builds the locality-centric mapping for a geometry. It
// panics on invalid geometry: geometries are static configuration.
func NewLocality(g Geometry) *Locality {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &Locality{
		g:        g,
		colBits:  log2(g.Cols),
		rowBits:  log2(g.Rows),
		bankBits: log2(g.Banks),
		bgBits:   log2(g.BankGroups),
		rankBits: log2(g.Ranks),
	}
}

// Map implements Mapper.
func (m *Locality) Map(addr uint64) Loc {
	a := addr / mem.LineBytes
	var l Loc
	l.Col = int(a & (uint64(m.g.Cols) - 1))
	a >>= m.colBits
	l.Row = int(a & (uint64(m.g.Rows) - 1))
	a >>= m.rowBits
	l.Bank = int(a & (uint64(m.g.Banks) - 1))
	a >>= m.bankBits
	l.BankGroup = int(a & (uint64(m.g.BankGroups) - 1))
	a >>= m.bgBits
	l.Rank = int(a & (uint64(m.g.Ranks) - 1))
	a >>= m.rankBits
	l.Channel = int(a & (uint64(m.g.Channels) - 1))
	return l
}

// Unmap implements Mapper.
func (m *Locality) Unmap(l Loc) uint64 {
	a := uint64(l.Channel)
	a = a<<m.rankBits | uint64(l.Rank)
	a = a<<m.bgBits | uint64(l.BankGroup)
	a = a<<m.bankBits | uint64(l.Bank)
	a = a<<m.rowBits | uint64(l.Row)
	a = a<<m.colBits | uint64(l.Col)
	return a * mem.LineBytes
}

// Geometry implements Mapper.
func (m *Locality) Geometry() Geometry { return m.g }

// Name implements Mapper.
func (m *Locality) Name() string { return "locality" }

func (m *Locality) String() string { return fmt.Sprintf("locality-centric(%s)", m.g) }
