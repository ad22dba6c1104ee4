package xfer

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// StreamConfig parameterizes the read-only bandwidth microbenchmark of
// Fig. 8: multi-threaded AVX loads over a buffer, sequential or strided.
type StreamConfig struct {
	Threads int
	// StrideLines is the distance between consecutive accesses in lines:
	// 1 is sequential; larger values model the strided pattern of Fig. 8.
	StrideLines int
	// GroupLines is the unrolled loads per barrier.
	GroupLines int
}

// DefaultStreamConfig matches the Fig. 8 microbenchmark (sequential).
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Threads: 8, StrideLines: 1, GroupLines: 8}
}

// Validate reports configuration errors.
func (c StreamConfig) Validate() error {
	if c.Threads <= 0 || c.StrideLines <= 0 || c.GroupLines <= 0 {
		return fmt.Errorf("xfer: invalid stream config %+v", c)
	}
	return nil
}

// RunStream launches the read-only microbenchmark and calls onDone when
// the last worker exits: each thread loads linesPerThread lines with the
// configured stride from its own slice of the address space starting at
// base.
func RunStream(c *cpu.CPU, base uint64, linesPerThread uint64, cfg StreamConfig, onDone func()) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if linesPerThread == 0 {
		panic("xfer: zero-length stream")
	}
	stride := uint64(cfg.StrideLines) * mem.LineBytes
	srcs := make([]source, cfg.Threads)
	for t := range srcs {
		srcs[t] = &lineSource{src: base + uint64(t)*linesPerThread*stride, stride: stride,
			lines: linesPerThread, per: uint64(cfg.GroupLines)}
	}
	launch(c, "stream", srcs, onDone)
}
