// Package mem defines the memory request types exchanged between request
// generators (CPU cores, the Data Copy Engine, contender workloads) and the
// DDR4 memory controllers, together with the physical address-space layout
// of a memory-bus-integrated PIM system.
//
// Following the paper (Section II-B), the physical address space is split
// into two mutually exclusive regions: a DRAM region served by conventional
// DIMMs and a PIM region in which every bank is owned by one PIM core.
// Requests to the PIM region are non-cacheable, exactly as in UPMEM systems.
package mem

import (
	"fmt"

	"repro/internal/clock"
)

// LineBytes is the transfer granularity of the memory system: one 64-byte
// cache line, equal to one DDR4 BL8 burst on a 64-bit channel.
const LineBytes = 64

// Space identifies which half of the split physical address space an
// address belongs to.
type Space int

const (
	// SpaceDRAM is the conventional DRAM region.
	SpaceDRAM Space = iota
	// SpacePIM is the PIM region; each bank belongs to a single PIM core
	// and accesses bypass the cache hierarchy.
	SpacePIM
)

func (s Space) String() string {
	if s == SpacePIM {
		return "PIM"
	}
	return "DRAM"
}

// PIMBase is the base physical address of the PIM region. The BIOS of a
// real PIM system programs this split at boot (Section IV-E); we place the
// PIM region at 256 GiB, far above any DRAM capacity we configure.
const PIMBase uint64 = 1 << 38

// SpaceOf classifies a physical address.
func SpaceOf(addr uint64) Space {
	if addr >= PIMBase {
		return SpacePIM
	}
	return SpaceDRAM
}

// Kind distinguishes reads from writes.
type Kind int

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Req is one line-sized memory request. Requests are created by an agent,
// enqueued at a channel controller, and completed by invoking OnDone once
// the data burst finishes on the bus. A request carries only what routing
// and completion need: its address, kind, cacheability and callback.
type Req struct {
	// Addr is the line-aligned physical address.
	Addr uint64
	// Kind is Read or Write.
	Kind Kind
	// Cacheable requests may be served by the LLC; non-cacheable requests
	// (all PIM-space traffic) always reach the memory controller.
	Cacheable bool
	// OnDone, if non-nil, runs when the request's data transfer completes.
	OnDone func(now clock.Picos)
}

func (r *Req) String() string {
	return fmt.Sprintf("%s %s 0x%x", r.Kind, SpaceOf(r.Addr), r.Addr)
}

// LineAlign rounds an address down to its line.
func LineAlign(addr uint64) uint64 { return addr &^ uint64(LineBytes-1) }

// Port is the interface request generators use to reach the memory system.
// TryEnqueue reports false when the target controller queue is full; the
// caller must retry after Wakeup fires (registered via WaitSpace).
type Port interface {
	// TryEnqueue attempts to hand the request to the memory system. A
	// rejected request is not retained: the caller owns it again and may
	// reuse it for its retry or any other request.
	TryEnqueue(r *Req) bool
	// WaitSpace registers a callback invoked (once) the next time queue
	// space that previously caused a TryEnqueue failure becomes available.
	WaitSpace(fn func())
}
