package xfer

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// MemcpyConfig parameterizes the multi-threaded AVX-512 DRAM->DRAM copy
// microbenchmark (Section V): each thread streams a contiguous slice of
// the source with vector loads and non-temporal (_mm512_stream_si512)
// stores.
type MemcpyConfig struct {
	Threads int
	// GroupLines is how many lines a thread reads before the barrier and
	// store burst (8 x 64 B = one unrolled AVX loop iteration).
	GroupLines int
	// LoopOverheadCycles is per-group bookkeeping.
	LoopOverheadCycles int64
}

// DefaultMemcpyConfig matches the paper's custom microbenchmark.
func DefaultMemcpyConfig() MemcpyConfig {
	return MemcpyConfig{Threads: 8, GroupLines: 8, LoopOverheadCycles: 8}
}

// Validate reports configuration errors.
func (c MemcpyConfig) Validate() error {
	if c.Threads <= 0 || c.GroupLines <= 0 {
		return fmt.Errorf("xfer: invalid memcpy config %+v", c)
	}
	return nil
}

// RunMemcpy launches the multi-threaded copy of bytes from src to dst and
// calls onDone when the last worker exits. The range is split into
// contiguous per-thread slices, exactly like a parallel memcpy.
func RunMemcpy(c *cpu.CPU, src, dst, bytes uint64, cfg MemcpyConfig, onDone func()) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if bytes == 0 || bytes%mem.LineBytes != 0 {
		panic(fmt.Sprintf("xfer: memcpy size %d not a positive multiple of %d", bytes, mem.LineBytes))
	}
	lines := bytes / mem.LineBytes
	srcs := make([]source, min(uint64(cfg.Threads), lines))
	n := uint64(len(srcs))
	off := uint64(0)
	for t := range srcs {
		sz := lines / n
		if uint64(t) < lines%n {
			sz++
		}
		srcs[t] = &lineSource{src: src + off, dst: dst + off, stride: mem.LineBytes, lines: sz,
			per: uint64(cfg.GroupLines), cycles: cfg.LoopOverheadCycles, copies: true}
		off += sz * mem.LineBytes
	}
	launch(c, "memcpy", srcs, onDone)
}
