package addrmap

import (
	"fmt"

	"repro/internal/mem"
)

// MLP is the MLP-centric mapping used by conventional (non-PIM) servers
// (paper Fig. 7b, referencing Intel Xeon datasheets and DRAMA reverse
// engineering). Two ideas maximize memory-level parallelism:
//
//  1. Bit placement: the channel bits sit just above a small low slice of
//     the column bits, so a 256-byte stream already touches every channel;
//     a low bank-group bit sits immediately above the channel bits so
//     consecutive bursts alternate bank groups (hiding tCCD_L); rank and
//     bank bits sit below the row bits so a few KiB of streaming spreads
//     across every bank.
//  2. Permutation-based XOR hashing (Zhang et al., MICRO 2000): the bank,
//     bank-group and channel indices are XORed with slices of the row
//     index, so strided patterns that would otherwise camp on one bank are
//     spread across the subsystem while row-buffer locality within a bank
//     is preserved (XORing with row bits permutes banks *between* rows,
//     never within one).
//
// The XOR stage only feeds row bits into non-row fields, so the mapping
// remains a bijection; Unmap undoes it exactly.
type MLP struct {
	g Geometry

	colLowBits                                           uint // column bits below the channel bits (fine interleave)
	bgLowBits                                            uint // bank-group bits interleaved right above the channel
	colBits, rowBits, bankBits, bgBits, rankBits, chBits uint

	hashing bool // XOR hashing enabled (on by default)
}

// MLPOption customizes the MLP-centric mapping.
type MLPOption func(*MLP)

// WithoutXORHash disables the permutation-based XOR stage. Used by the
// ablation benches to isolate the contribution of hashing.
func WithoutXORHash() MLPOption { return func(m *MLP) { m.hashing = false } }

// NewMLP builds the MLP-centric mapping for a geometry.
func NewMLP(g Geometry, opts ...MLPOption) *MLP {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	m := &MLP{
		g:        g,
		colBits:  log2(g.Cols),
		rowBits:  log2(g.Rows),
		bankBits: log2(g.Banks),
		bgBits:   log2(g.BankGroups),
		rankBits: log2(g.Ranks),
		chBits:   log2(g.Channels),
		hashing:  true,
	}
	// Interleave channels every 256 B (4 lines), matching Intel's
	// fine-grained channel interleaving granularity.
	m.colLowBits = 2
	if m.colLowBits > m.colBits {
		m.colLowBits = m.colBits
	}
	// One bank-group bit right above the channel bits, if any exist.
	if m.bgBits > 0 {
		m.bgLowBits = 1
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// fold XORs the slices of v together down to width bits.
func fold(v uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	var out uint64
	mask := uint64(1)<<width - 1
	for v != 0 {
		out ^= v & mask
		v >>= width
	}
	return out
}

// Map implements Mapper.
func (m *MLP) Map(addr uint64) Loc {
	a := addr / mem.LineBytes
	take := func(width uint) uint64 {
		v := a & (1<<width - 1)
		a >>= width
		return v
	}
	colLow := take(m.colLowBits)
	ch := take(m.chBits)
	bgLow := take(m.bgLowBits)
	colHigh := take(m.colBits - m.colLowBits)
	rank := take(m.rankBits)
	bgHigh := take(m.bgBits - m.bgLowBits)
	bank := take(m.bankBits)
	row := take(m.rowBits)

	bg := bgHigh<<m.bgLowBits | bgLow
	col := colHigh<<m.colLowBits | colLow

	if m.hashing {
		bank ^= row & (1<<m.bankBits - 1)
		bg ^= (row >> m.bankBits) & (1<<m.bgBits - 1)
		ch ^= fold(row>>(m.bankBits+m.bgBits), m.chBits)
	}
	return Loc{
		Channel:   int(ch),
		Rank:      int(rank),
		BankGroup: int(bg),
		Bank:      int(bank),
		Row:       int(row),
		Col:       int(col),
	}
}

// Unmap implements Mapper.
func (m *MLP) Unmap(l Loc) uint64 {
	row := uint64(l.Row)
	bank := uint64(l.Bank)
	bg := uint64(l.BankGroup)
	ch := uint64(l.Channel)
	if m.hashing {
		bank ^= row & (1<<m.bankBits - 1)
		bg ^= (row >> m.bankBits) & (1<<m.bgBits - 1)
		ch ^= fold(row>>(m.bankBits+m.bgBits), m.chBits)
	}
	col := uint64(l.Col)
	colLow := col & (1<<m.colLowBits - 1)
	colHigh := col >> m.colLowBits
	bgLow := bg & (1<<m.bgLowBits - 1)
	bgHigh := bg >> m.bgLowBits

	a := row
	a = a<<m.bankBits | bank
	a = a<<(m.bgBits-m.bgLowBits) | bgHigh
	a = a<<m.rankBits | uint64(l.Rank)
	a = a<<(m.colBits-m.colLowBits) | colHigh
	a = a<<m.bgLowBits | bgLow
	a = a<<m.chBits | ch
	a = a<<m.colLowBits | colLow
	return a * mem.LineBytes
}

// Geometry implements Mapper.
func (m *MLP) Geometry() Geometry { return m.g }

// Name implements Mapper.
func (m *MLP) Name() string {
	if !m.hashing {
		return "mlp-nohash"
	}
	return "mlp"
}

func (m *MLP) String() string {
	return fmt.Sprintf("mlp-centric(%s, hashing=%t)", m.g, m.hashing)
}
