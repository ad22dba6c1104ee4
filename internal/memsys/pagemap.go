package memsys

import "fmt"

// PageMap models the operating system's physical page allocation: a user
// buffer that is virtually contiguous occupies scattered physical 4 KB
// frames. The scatter is what lets multi-stream workloads reach many
// banks even under the locality-centric mapping — and it is deliberately
// absent from the PIM region, whose layout is fixed by the PIM runtime
// (each core's MRAM is a hardwired slice of its bank).
//
// Scatter is *arena-local*: the buddy allocator hands out pages from a
// compact region of physical memory, so a buffer's frames permute within
// an arena-sized window rather than across the whole address space. Under
// the locality-centric mapping (channel bits at the MSB) this is what
// confines a working set to one channel's banks — the effect Fig. 8
// measures — while under the MLP-centric mapping the low-bit interleaving
// spreads every page over all channels regardless.
//
// The map is a Feistel permutation over the arena-local frame index:
// bijective (no two virtual frames collide), deterministic (runs are
// reproducible), and parameter-free beyond a seed.
type PageMap struct {
	pageShift  uint
	arenaShift uint
	bits       uint // arena-local frame-index width
	seed       uint64
}

// DefaultArenaBytes is the allocation-clustering window: 4 GiB, roughly
// the contiguity a freshly booted buddy allocator provides.
const DefaultArenaBytes = 4 << 30

// NewPageMap builds a page map for a region of the given size (a power of
// two) with 4 KB pages and the given arena size (a power of two no larger
// than the region; 0 selects DefaultArenaBytes clamped to the region).
func NewPageMap(regionBytes, arenaBytes, seed uint64) *PageMap {
	const pageShift = 12
	if regionBytes == 0 || regionBytes&(regionBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: region size 0x%x not a power of two", regionBytes))
	}
	if arenaBytes == 0 {
		arenaBytes = DefaultArenaBytes
	}
	if arenaBytes > regionBytes {
		arenaBytes = regionBytes
	}
	if arenaBytes&(arenaBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: arena size 0x%x not a power of two", arenaBytes))
	}
	frames := arenaBytes >> pageShift
	if frames < 2 {
		panic("memsys: arena too small to page")
	}
	bits := uint(0)
	for 1<<bits < frames {
		bits++
	}
	arenaShift := uint(0)
	for 1<<arenaShift < arenaBytes {
		arenaShift++
	}
	return &PageMap{pageShift: pageShift, arenaShift: arenaShift, bits: bits, seed: seed}
}

// round is a small mixing function for the Feistel rounds.
func (m *PageMap) round(v, k uint64) uint64 {
	v ^= k
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 32
	return v
}

// Frame permutes an arena-local frame index (bijectively) using an
// unbalanced Feistel network keyed by the arena index: four rounds
// alternate mixing one half with a keyed hash of the other, which is
// invertible by construction.
func (m *PageMap) Frame(frame, arena uint64) uint64 {
	loBits := m.bits / 2
	hiBits := m.bits - loBits
	l := frame & (1<<loBits - 1)
	h := frame >> loBits
	key := m.seed ^ arena*0xD1B54A32D192ED03
	for r := 0; r < 4; r++ {
		if r%2 == 0 {
			l = (l ^ m.round(h, key+uint64(r))) & (1<<loBits - 1)
		} else {
			h = (h ^ m.round(l, key+uint64(r))) & (1<<hiBits - 1)
		}
	}
	return h<<loBits | l
}

// Translate maps a region-relative byte address onto its scattered
// physical placement, preserving the arena and the offset within the
// 4 KB page.
func (m *PageMap) Translate(addr uint64) uint64 {
	arena := addr >> m.arenaShift
	local := addr & (1<<m.arenaShift - 1)
	frame := local >> m.pageShift
	off := local & (1<<m.pageShift - 1)
	return arena<<m.arenaShift | m.Frame(frame, arena)<<m.pageShift | off
}

// ArenaBytes reports the clustering window size.
func (m *PageMap) ArenaBytes() uint64 { return 1 << m.arenaShift }
