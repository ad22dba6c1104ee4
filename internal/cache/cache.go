// Package cache implements the shared last-level cache of the host
// processor (Table I: 8 MB, 16-way, 64 B lines, LRU). The cache is a pure
// state machine — lookup, allocation, eviction — with no notion of time;
// the memory-system router charges latencies around it.
//
// PIM-space requests never enter the cache: the PIM address range is
// non-cacheable in real systems (the host must observe DPU-written data,
// and DPUs must observe host-written data, without coherence hardware).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Config sizes the cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// DefaultConfig is the Table I LLC: 8 MB shared, 16-way.
func DefaultConfig() Config {
	return Config{SizeBytes: 8 << 20, Ways: 16}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive size or ways")
	}
	lines := c.SizeBytes / mem.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HitRate is hits / (hits+misses).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. Way state lives in flat per-field arrays indexed
// set*Ways+way, so a lookup scans only one set's keys — a couple of host
// cache lines — and touches LRU and dirty state only for the way it uses.
type Cache struct {
	cfg      Config
	nSets    int
	setMask  uint64
	tagShift uint     // set-index bits: a line's tag is line >> tagShift
	keys     []uint64 // tag+1 of the line a way holds; 0 when invalid
	used     []uint64 // LRU timestamp
	dirty    []bool
	clock    uint64
	stats    Stats
}

// New builds a cache; it panics on invalid configuration (static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / mem.LineBytes / cfg.Ways
	n := nSets * cfg.Ways
	return &Cache{cfg: cfg, nSets: nSets, setMask: uint64(nSets - 1),
		tagShift: uint(bits.OnesCount(uint(nSets - 1))),
		keys:     make([]uint64, n), used: make([]uint64, n), dirty: make([]bool, n)}
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.nSets }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// index locates addr: its set, the set's first way, and its line's key
// (tag+1, so no valid line has key 0).
func (c *Cache) index(addr uint64) (set uint64, base int, key uint64) {
	line := addr / mem.LineBytes
	set = line & c.setMask
	return set, int(set) * c.cfg.Ways, line>>c.tagShift + 1
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback holds the line address of an evicted dirty line that must
	// be written to memory; valid only when HasWriteback.
	Writeback    uint64
	HasWriteback bool
}

// Access performs a read or write lookup with write-allocate semantics:
// a miss allocates the line (the caller is responsible for fetching it
// from memory) and may evict a dirty victim.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, base, key := c.index(addr)
	c.clock++
	keys := c.keys[base : base+c.cfg.Ways]
	for i, k := range keys {
		if k == key {
			c.used[base+i] = c.clock
			if write {
				c.dirty[base+i] = true
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// Choose victim: first invalid way, else LRU.
	used := c.used[base : base+len(keys)]
	victim := 0
	for i, k := range keys {
		if k == 0 {
			victim = i
			break
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	res := Result{}
	if keys[victim] != 0 {
		c.stats.Evictions++
		if c.dirty[base+victim] {
			c.stats.Writebacks++
			res.HasWriteback = true
			res.Writeback = c.victimAddr(set, keys[victim]-1)
		}
	}
	keys[victim], used[victim], c.dirty[base+victim] = key, c.clock, write
	return res
}

// Contains reports whether the line holding addr is cached, without
// touching LRU state.
func (c *Cache) Contains(addr uint64) bool {
	_, base, key := c.index(addr)
	for _, k := range c.keys[base : base+c.cfg.Ways] {
		if k == key {
			return true
		}
	}
	return false
}

// victimAddr reconstructs a line address from (set, tag).
func (c *Cache) victimAddr(set, tag uint64) uint64 {
	return (tag<<c.tagShift | set) * mem.LineBytes
}
