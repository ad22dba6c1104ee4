package addrmap

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Region is one contiguous physical-address range served by a particular
// mapping function and device set. The BIOS establishes these ranges at
// boot and informs the memory controller (paper Section IV-E).
type Region struct {
	// Name labels the region ("dram", "pim").
	Name string
	// Base is the first physical address of the region.
	Base uint64
	// Mapper decodes region-relative addresses.
	Mapper Mapper
	// Space tells the system which device set (DRAM DIMMs or PIM DIMMs)
	// the decoded location belongs to.
	Space mem.Space
}

// Size is the region's capacity in bytes, derived from its mapper.
func (r Region) Size() uint64 { return r.Mapper.Geometry().TotalBytes() }

// End is one past the region's last byte.
func (r Region) End() uint64 { return r.Base + r.Size() }

// HetMap is the Heterogeneous Memory Mapping Unit (Section IV-E). It keeps
// one mapping function per physical-address region and dispatches each
// incoming request to the mapper of the region that contains it: an
// MLP-centric mapping for the DRAM region and a locality-centric
// ChRaBgBkRoCo mapping for the PIM region.
//
// The baseline (non-PIM-MMU) system is expressed with the same type by
// installing the locality-centric function on *both* regions, mirroring
// the homogeneous BIOS mapping real PIM systems are forced into.
type HetMap struct {
	regions []Region // sorted by Base
	ends    []uint64 // ends[i] is regions[i].End(), cached for Lookup
}

// NewHetMap builds a mapping unit from the given regions. Regions must not
// overlap; overlap is a configuration bug and panics.
func NewHetMap(regions ...Region) *HetMap {
	rs := make([]Region, len(regions))
	copy(rs, regions)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })
	for i := 1; i < len(rs); i++ {
		if rs[i].Base < rs[i-1].End() {
			panic(fmt.Sprintf("addrmap: regions %q and %q overlap", rs[i-1].Name, rs[i].Name))
		}
	}
	h := &HetMap{regions: rs, ends: make([]uint64, len(rs))}
	for i, r := range rs {
		h.ends[i] = r.End()
	}
	return h
}

// Lookup finds the region containing addr. The second result is false when
// the address falls outside every region.
func (h *HetMap) Lookup(addr uint64) (Region, bool) {
	// Regions are sorted and disjoint, and a system has a handful: the
	// first region ending past addr is the only candidate.
	for i, end := range h.ends {
		if addr < end {
			if addr >= h.regions[i].Base {
				return h.regions[i], true
			}
			break
		}
	}
	return Region{}, false
}

// Decode translates a physical address into (region, location). It panics
// on an unmapped address: every simulated agent allocates inside a region,
// so an unmapped address is a simulator bug, not a runtime condition.
func (h *HetMap) Decode(addr uint64) (Region, Loc) {
	r, ok := h.Lookup(addr)
	if !ok {
		panic(fmt.Sprintf("addrmap: address 0x%x outside every region", addr))
	}
	return r, r.Mapper.Map(addr - r.Base)
}

func (h *HetMap) String() string {
	s := "HetMap{"
	for i, r := range h.regions {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s@0x%x:%s", r.Name, r.Base, r.Mapper.Name())
	}
	return s + "}"
}
