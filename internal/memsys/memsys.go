// Package memsys wires the memory system together: the HetMap address
// decoder, the conventional DRAM device set, the PIM device set, and the
// shared last-level cache. It implements mem.Port, the interface through
// which CPU cores, the Data Copy Engine and contender workloads reach
// memory.
//
// Routing rules (Section II-B, IV-E):
//   - every physical address is decoded by the HetMap into a region
//     (DRAM or PIM) and a DRAM location under that region's mapping
//     function;
//   - cacheable DRAM requests pass through the LLC (write-back,
//     write-allocate); dirty evictions generate writeback traffic;
//   - PIM-region requests are always non-cacheable and go straight to the
//     PIM DIMMs' controllers.
//
// # Sharding contract
//
// On a sharded engine (system.Config.Shards != 0) every channel behind
// this port schedules on its own event lane. Everything else the memory
// system owns — the LLC, the page map, the deferred hit queue — is host
// state on the engine's own heap:
//
//   - enqueue paths (TryEnqueue, WaitSpace, writeback retries) run from
//     host events, crossing events and other enqueues;
//   - a request's OnDone runs from a crossing event on the owning
//     channel's lane, or — for an LLC hit — from the batched host-lane hit
//     queue (hitEv);
//   - the tap (trace recording) observes requests inside TryEnqueue, so
//     one recorder sees CPU, DCE and contender traffic from every lane.
package memsys

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MappingMode selects the memory mapping functions installed at boot.
type MappingMode int

const (
	// MapLocalityBoth is the PIM-specific BIOS mapping of current systems:
	// the locality-centric function applied homogeneously to both the DRAM
	// and the PIM regions (the baseline, Fig. 7a).
	MapLocalityBoth MappingMode = iota
	// MapHetMap is PIM-MMU's HetMap: MLP-centric mapping for the DRAM
	// region, locality-centric for the PIM region (Section IV-E).
	MapHetMap
	// MapMLPBoth is a conventional non-PIM server (MLP-centric everywhere);
	// used only as the reference point in Fig. 8 — a real PIM system cannot
	// boot this way.
	MapMLPBoth
	// MapHetMapNoHash is HetMap with XOR hashing disabled in the
	// MLP-centric function (ablation).
	MapHetMapNoHash
)

func (m MappingMode) String() string {
	switch m {
	case MapLocalityBoth:
		return "locality-both"
	case MapHetMap:
		return "hetmap"
	case MapMLPBoth:
		return "mlp-both"
	case MapHetMapNoHash:
		return "hetmap-nohash"
	}
	return "unknown"
}

// Config assembles a full memory system.
type Config struct {
	DRAM dram.Config // conventional DIMMs
	PIM  dram.Config // PIM DIMMs
	LLC  cache.Config
	// LLCHitLatency is the load-to-use latency of an LLC hit.
	LLCHitLatency clock.Picos
	// Mapping selects the boot-time mapping functions.
	Mapping MappingMode
	// PageScatter, when true, models OS physical page allocation: DRAM
	// region addresses are permuted at 4 KB granularity before decoding
	// (the PIM region is never paged — its layout is fixed by the PIM
	// runtime). Default on; disable for direct physical addressing
	// experiments.
	PageScatter bool
	// PageSeed seeds the page permutation (deterministic per seed).
	PageSeed uint64
	// ArenaBytes is the allocation-clustering window (see PageMap);
	// 0 selects the default.
	ArenaBytes uint64
}

// DefaultConfig is the Table I system with the baseline (locality-both)
// mapping.
func DefaultConfig() Config {
	return Config{
		DRAM:          dram.DefaultConfig(),
		PIM:           dram.DefaultConfig(),
		LLC:           cache.DefaultConfig(),
		LLCHitLatency: 12500, // ~40 CPU cycles at 3.2 GHz
		Mapping:       MapLocalityBoth,
		PageScatter:   true,
		PageSeed:      0x5eed,
	}
}

// System is the assembled memory system.
type System struct {
	eng *sim.Engine
	cfg Config

	DRAM *dram.DeviceSet
	PIM  *dram.DeviceSet
	LLC  *cache.Cache
	Het  *addrmap.HetMap

	dramRegion addrmap.Region
	pimRegion  addrmap.Region
	pages      *PageMap // nil when page scatter is disabled

	// lastFull remembers the channel whose queue rejected the most recent
	// Access, so WaitSpace can register there (mem.Port contract).
	lastFull *dram.Channel

	// spareFill is an LLC-miss fill request a channel rejected, reused by
	// the next miss.
	spareFill *mem.Req

	// tap, when set, observes every request accepted at the mem.Port
	// boundary — CPU, DCE and contender traffic alike — before any queue
	// or cache side effect becomes visible to the caller. Trace recording
	// attaches here.
	tap func(now clock.Picos, r *mem.Req)

	// hitQ defers LLC-hit completions: the hit latency is a constant, so
	// completions are FIFO and one standing host event drains the queue —
	// no per-hit event allocation.
	hitQ    []hitDone
	hitHead int
	hitEv   sim.Event
}

// hitDone is one deferred LLC-hit completion.
type hitDone struct {
	at   clock.Picos
	done func(clock.Picos)
}

// New assembles the memory system.
func New(eng *sim.Engine, cfg Config) (*System, error) {
	ds, err := dram.New(eng, cfg.DRAM, "dram")
	if err != nil {
		return nil, err
	}
	ps, err := dram.New(eng, cfg.PIM, "pim")
	if err != nil {
		return nil, err
	}
	var dramMapper, pimMapper addrmap.Mapper
	switch cfg.Mapping {
	case MapLocalityBoth:
		dramMapper = addrmap.NewLocality(cfg.DRAM.Geometry)
		pimMapper = addrmap.NewLocality(cfg.PIM.Geometry)
	case MapHetMap:
		dramMapper = addrmap.NewMLP(cfg.DRAM.Geometry)
		pimMapper = addrmap.NewLocality(cfg.PIM.Geometry)
	case MapMLPBoth:
		dramMapper = addrmap.NewMLP(cfg.DRAM.Geometry)
		pimMapper = addrmap.NewMLP(cfg.PIM.Geometry)
	case MapHetMapNoHash:
		dramMapper = addrmap.NewMLP(cfg.DRAM.Geometry, addrmap.WithoutXORHash())
		pimMapper = addrmap.NewLocality(cfg.PIM.Geometry)
	default:
		return nil, fmt.Errorf("memsys: unknown mapping mode %d", cfg.Mapping)
	}
	dramRegion := addrmap.Region{Name: "dram", Base: 0, Mapper: dramMapper, Space: mem.SpaceDRAM}
	pimRegion := addrmap.Region{Name: "pim", Base: mem.PIMBase, Mapper: pimMapper, Space: mem.SpacePIM}
	s := &System{
		eng:        eng,
		cfg:        cfg,
		DRAM:       ds,
		PIM:        ps,
		LLC:        cache.New(cfg.LLC),
		Het:        addrmap.NewHetMap(dramRegion, pimRegion),
		dramRegion: dramRegion,
		pimRegion:  pimRegion,
	}
	if cfg.PageScatter {
		s.pages = NewPageMap(cfg.DRAM.Geometry.TotalBytes(), cfg.ArenaBytes, cfg.PageSeed)
	}
	s.hitEv.Init(sim.HandlerFunc(s.fireHits))
	return s, nil
}

// MustNew is New for static configurations.
func MustNew(eng *sim.Engine, cfg Config) *System {
	s, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config reports the configuration.
func (s *System) Config() Config { return s.cfg }

// SetTap installs (or, with nil, removes) the port-boundary observer.
// The tap sees every accepted request exactly once, at its acceptance
// time; rejected TryEnqueue attempts are not reported.
func (s *System) SetTap(fn func(now clock.Picos, r *mem.Req)) { s.tap = fn }

// accepted reports one request to the tap.
func (s *System) accepted(r *mem.Req) {
	if s.tap != nil {
		s.tap(s.eng.Now(), r)
	}
}

// channelFor returns the controller serving a decoded location.
func (s *System) channelFor(space mem.Space, loc addrmap.Loc) *dram.Channel {
	if space == mem.SpacePIM {
		return s.PIM.Channel(loc.Channel)
	}
	return s.DRAM.Channel(loc.Channel)
}

// physical applies the OS page scatter to DRAM-region addresses. PIM
// addresses and direct (unscattered) systems pass through unchanged.
func (s *System) physical(addr uint64) uint64 {
	if s.pages == nil || addr >= mem.PIMBase {
		return addr
	}
	return s.pages.Translate(addr)
}

// Decode exposes the HetMap decode for agents (the DCE's AGU uses it).
// It includes the OS page translation for DRAM-region addresses.
func (s *System) Decode(addr uint64) (mem.Space, addrmap.Loc) {
	r, loc := s.Het.Decode(s.physical(addr))
	return r.Space, loc
}

// TryEnqueue implements mem.Port. It returns false when the target
// controller queue is full, retaining neither r nor anything derived
// from it; call WaitSpace to be notified and retry.
func (s *System) TryEnqueue(r *mem.Req) bool {
	region, loc := s.Het.Decode(s.physical(r.Addr))
	ch := s.channelFor(region.Space, loc)

	if !r.Cacheable || region.Space == mem.SpacePIM {
		if !ch.TryEnqueue(r, loc) {
			s.lastFull = ch
			return false
		}
		s.accepted(r)
		return true
	}

	// Cacheable DRAM path.
	if s.LLC.Contains(r.Addr) {
		s.accepted(r)
		s.LLC.Access(r.Addr, r.Kind == mem.Write) // hit: update LRU/dirty
		if r.OnDone != nil {
			at := s.eng.Now() + s.cfg.LLCHitLatency
			s.hitQ = append(s.hitQ, hitDone{at: at, done: r.OnDone})
			if !s.hitEv.Scheduled() {
				s.eng.Schedule(&s.hitEv, at)
			}
		}
		return true
	}

	// Miss: fetch the line (a read, even for a store — write-allocate).
	fill := s.spareFill
	if fill == nil {
		fill = &mem.Req{}
	}
	s.spareFill = nil
	*fill = mem.Req{
		Addr:      r.Addr,
		Kind:      mem.Read,
		Cacheable: true,
		OnDone:    r.OnDone,
	}
	if !ch.TryEnqueue(fill, loc) {
		s.spareFill = fill
		s.lastFull = ch
		return false
	}
	s.accepted(r)
	res := s.LLC.Access(r.Addr, r.Kind == mem.Write)
	if res.HasWriteback {
		s.issueWriteback(res.Writeback)
	}
	return true
}

// fireHits delivers every deferred LLC-hit completion that has matured.
// Completions enqueue in timestamp order (constant latency), so a head
// index suffices; callbacks may enqueue further hits while we drain.
func (s *System) fireHits(now clock.Picos) {
	for s.hitHead < len(s.hitQ) && s.hitQ[s.hitHead].at <= now {
		hd := s.hitQ[s.hitHead]
		s.hitQ[s.hitHead] = hitDone{} // drop the callback reference
		s.hitHead++
		hd.done(now)
	}
	if s.hitHead == len(s.hitQ) {
		s.hitQ = s.hitQ[:0]
		s.hitHead = 0
		return
	}
	if next := s.hitQ[s.hitHead].at; !s.hitEv.Scheduled() || s.hitEv.When() > next {
		s.eng.Schedule(&s.hitEv, next)
	}
}

// issueWriteback sends an evicted dirty line to DRAM, retrying until the
// target queue accepts it. Writebacks are posted: nothing waits on them.
func (s *System) issueWriteback(addr uint64) {
	region, loc := s.Het.Decode(s.physical(addr))
	ch := s.channelFor(region.Space, loc)
	wb := &mem.Req{Addr: addr, Kind: mem.Write, Cacheable: true}
	var try func()
	try = func() {
		if !ch.TryEnqueue(wb, loc) {
			ch.WaitSpace(try)
		}
	}
	try()
}

// WaitSpace implements mem.Port: it registers fn with the channel that
// rejected the most recent TryEnqueue.
func (s *System) WaitSpace(fn func()) {
	if s.lastFull == nil {
		// No recorded rejection; fire immediately so callers cannot hang.
		s.eng.After(0, fn)
		return
	}
	s.lastFull.WaitSpace(fn)
}

// Idle reports whether both device sets have drained.
func (s *System) Idle() bool { return s.DRAM.Idle() && s.PIM.Idle() }

var _ mem.Port = (*System)(nil)
