// Package pimms implements the PIM-aware Memory Scheduler of Section IV-D:
// Algorithm 1. Its key insight is that the per-core segments of a
// DRAM<->PIM transfer are mutually exclusive (each PIM core owns a disjoint
// slice of the PIM address space), so the hardware may freely reorder the
// line transfers of different cores. PIM-MS exploits that freedom to
// maximize memory-level parallelism:
//
//   - channels are served in parallel (Algorithm 1's #do-parallel);
//   - within a channel, successive granules rotate over bank groups first
//     (hiding tCCD_L), then ranks, then banks — the loop nest
//     `for bk { for ra { for bg } }` of Algorithm 1;
//   - within one stream, addresses advance sequentially, keeping
//     row-buffer hits.
//
// The scheduler operates on *streams*: sequential line-granular address
// ranges tagged with the PIM core (and hence bank position) they belong
// to. The DCE derives two stream sets per transfer — the DRAM-side
// per-core source arrays and the PIM-side per-bank line ranges — and runs
// each through an iterator from this package. The baseline software path
// never sees any of this; that asymmetry is the paper's point.
package pimms

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/pim"
)

// Granularity is the scheduling granule: one 64-byte line per stream
// visit (Algorithm 1's min_access_granularity).
const Granularity = mem.LineBytes

// Stream is one sequential address range of a transfer: Bytes bytes
// starting at Base, belonging to PIM core Core (whose bank position
// drives the issue order).
type Stream struct {
	Core  int
	Base  uint64
	Bytes uint64
}

// Validate reports errors for misaligned or empty streams.
func (s Stream) Validate() error {
	if s.Bytes == 0 || s.Bytes%Granularity != 0 {
		return fmt.Errorf("pimms: stream core %d: %d bytes not a positive multiple of %d",
			s.Core, s.Bytes, Granularity)
	}
	if s.Base%Granularity != 0 {
		return fmt.Errorf("pimms: stream core %d: unaligned base 0x%x", s.Core, s.Base)
	}
	return nil
}

// Granule is one line emitted by an iterator.
type Granule struct {
	Core int
	Addr uint64
}

// Iterator yields granules in scheduling order.
type Iterator interface {
	// Next returns the next granule; ok is false when exhausted.
	Next() (g Granule, ok bool)
}

// cursor tracks one stream's progress.
type cursor struct {
	s   Stream
	off uint64
	loc pim.CoreLoc
}

func (c *cursor) done() bool { return c.off >= c.s.Bytes }

func (c *cursor) next() Granule {
	g := Granule{Core: c.s.Core, Addr: c.s.Base + c.off}
	c.off += Granularity
	return g
}

// Algorithm1 is the PIM-MS issue order for one channel: repeated sweeps
// over that channel's unfinished streams in bank-major, rank-middle,
// bank-group-minor order (Algorithm 1 lines 28-37).
type Algorithm1 struct {
	cursors []*cursor
	pos     int
	left    uint64
}

// NewAlgorithm1 builds per-channel iterators over the streams. The
// returned slice is indexed by the streams' PIM channel; channels with no
// streams get an empty iterator. It panics on an invalid stream — stream
// lists are constructed by the runtime library, so a bad one is a
// programming error.
func NewAlgorithm1(g pim.Geometry, streams []Stream) []*Algorithm1 {
	its := make([]*Algorithm1, g.DRAM.Channels)
	for i := range its {
		its[i] = &Algorithm1{}
	}
	for _, s := range streams {
		if err := s.Validate(); err != nil {
			panic(err)
		}
		loc := g.Loc(s.Core)
		it := its[loc.Channel]
		it.cursors = append(it.cursors, &cursor{s: s, loc: loc})
		it.left += s.Bytes / Granularity
	}
	// Algorithm 1 lines 29-31: for bk { for ra { for bg } }.
	for _, it := range its {
		cs := it.cursors
		sort.SliceStable(cs, func(i, j int) bool {
			a, b := cs[i].loc, cs[j].loc
			if a.Bank != b.Bank {
				return a.Bank < b.Bank
			}
			if a.Rank != b.Rank {
				return a.Rank < b.Rank
			}
			if a.BankGroup != b.BankGroup {
				return a.BankGroup < b.BankGroup
			}
			return a.Lane < b.Lane
		})
	}
	return its
}

// Next implements Iterator: one granule from the next unfinished stream
// in sweep order.
func (a *Algorithm1) Next() (Granule, bool) {
	n := len(a.cursors)
	if n == 0 || a.left == 0 {
		return Granule{}, false
	}
	for scanned := 0; scanned < n; scanned++ {
		c := a.cursors[a.pos]
		a.pos = (a.pos + 1) % n
		if !c.done() {
			a.left--
			return c.next(), true
		}
	}
	return Granule{}, false
}

// Remaining implements Iterator.
func (a *Algorithm1) Remaining() uint64 { return a.left }

// Sequential is the vanilla-DMA issue order used by the ablation's
// "Base+D" design point: streams processed strictly in core-ID order, one
// after another, with no cross-stream interleaving. This is how a
// conventional DMA engine (Intel I/OAT, DSA) walks a descriptor list.
type Sequential struct {
	cursors []*cursor
	idx     int
	left    uint64
}

// NewSequential builds a single whole-transfer iterator in core order.
func NewSequential(g pim.Geometry, streams []Stream) *Sequential {
	s := &Sequential{}
	for _, st := range streams {
		if err := st.Validate(); err != nil {
			panic(err)
		}
		s.cursors = append(s.cursors, &cursor{s: st, loc: g.Loc(st.Core)})
		s.left += st.Bytes / Granularity
	}
	sort.SliceStable(s.cursors, func(i, j int) bool {
		return s.cursors[i].s.Core < s.cursors[j].s.Core
	})
	return s
}

// Next implements Iterator.
func (s *Sequential) Next() (Granule, bool) {
	for s.idx < len(s.cursors) {
		c := s.cursors[s.idx]
		if !c.done() {
			s.left--
			return c.next(), true
		}
		s.idx++
	}
	return Granule{}, false
}

// Remaining implements Iterator.
func (s *Sequential) Remaining() uint64 { return s.left }

// TotalLines sums the granule count of a stream set.
func TotalLines(streams []Stream) uint64 {
	var n uint64
	for _, s := range streams {
		n += s.Bytes / Granularity
	}
	return n
}

// Chunked walks streams round-robin like Algorithm1 but emits chunkLines
// consecutive granules per stream visit. The DCE uses it for the DRAM
// side of a transfer: the AGU free-runs within one descriptor for a chunk
// before rotating, which preserves row-buffer locality under the
// MLP-centric mapping (whose channel/bank-group bits live in the low
// address bits, so a sequential chunk already spreads over the whole
// subsystem). The PIM side keeps line-granular Algorithm1 rotation.
type Chunked struct {
	cursors []*cursor
	pos     int
	inChunk int
	chunk   int
	left    uint64
}

// NewChunked builds a single whole-transfer iterator emitting chunkLines
// consecutive lines per stream visit, visiting streams round-robin in
// core order.
func NewChunked(g pim.Geometry, streams []Stream, chunkLines int) *Chunked {
	if chunkLines <= 0 {
		panic("pimms: non-positive chunk")
	}
	c := &Chunked{chunk: chunkLines}
	for _, st := range streams {
		if err := st.Validate(); err != nil {
			panic(err)
		}
		c.cursors = append(c.cursors, &cursor{s: st, loc: g.Loc(st.Core)})
		c.left += st.Bytes / Granularity
	}
	sort.SliceStable(c.cursors, func(i, j int) bool {
		return c.cursors[i].s.Core < c.cursors[j].s.Core
	})
	return c
}

// Next implements Iterator.
func (c *Chunked) Next() (Granule, bool) {
	n := len(c.cursors)
	if n == 0 || c.left == 0 {
		return Granule{}, false
	}
	for scanned := 0; scanned <= n; scanned++ {
		cur := c.cursors[c.pos]
		if !cur.done() && c.inChunk < c.chunk {
			c.inChunk++
			c.left--
			return cur.next(), true
		}
		c.pos = (c.pos + 1) % n
		c.inChunk = 0
	}
	return Granule{}, false
}

// ChannelRR is the intermediate issue order of the DESIGN.md ablation:
// channels are served round-robin (like Algorithm 1's #do-parallel), but
// within a channel the streams are walked strictly in core order with no
// bank rotation. It isolates how much of PIM-MS's win comes from
// channel-level parallelism alone versus the bank-group interleave.
type ChannelRR struct {
	its  []*Sequential
	rr   int
	left uint64
}

// NewChannelRR builds the per-channel sequential iterators wrapped in a
// channel round-robin.
func NewChannelRR(g pim.Geometry, streams []Stream) *ChannelRR {
	perCh := make([][]Stream, g.DRAM.Channels)
	for _, s := range streams {
		ch := g.Loc(s.Core).Channel
		perCh[ch] = append(perCh[ch], s)
	}
	c := &ChannelRR{}
	for _, ss := range perCh {
		it := NewSequential(g, ss)
		c.its = append(c.its, it)
		c.left += it.Remaining()
	}
	return c
}

// Next implements Iterator.
func (c *ChannelRR) Next() (Granule, bool) {
	n := len(c.its)
	if n == 0 || c.left == 0 {
		return Granule{}, false
	}
	for scanned := 0; scanned < n; scanned++ {
		it := c.its[c.rr]
		c.rr = (c.rr + 1) % n
		if g, ok := it.Next(); ok {
			c.left--
			return g, true
		}
	}
	return Granule{}, false
}
