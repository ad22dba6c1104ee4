// Package contend implements the co-located contender workloads of the
// paper's resource-contention study (Section VI-A, Fig. 13):
//
//   - Spin: a compute-intensive, spin-lock-like contender whose memory
//     accesses stay inside the on-chip caches. It competes for CPU cores
//     only, which is exactly what degrades the baseline's multi-threaded
//     transfers while leaving the DCE untouched (Fig. 13a).
//   - MemoryHog: a memory-intensive contender with a tunable ratio of
//     memory instructions to compute instructions ("low" to "very high"
//     intensity), streaming over a footprint far larger than the LLC. It
//     competes for DRAM bandwidth, degrading both designs (Fig. 13b).
//
// Contenders are plain cpu.Programs. The Stopper flag is read through
// the core's one-op program peek (see cpu.Program), so a stopped
// contender exits one operation after the flag is set.
package contend

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// Stopper signals contender threads to exit (contenders run until the
// measured transfer completes).
type Stopper struct{ stopped bool }

// Stop makes every program created with this stopper finish after its
// current iteration.
func (s *Stopper) Stop() { s.stopped = true }

// Spin returns a compute-bound contender program: long compute spans with
// an occasional load inside a 16 KB working set (always an LLC hit after
// warm-up). The span is emitted as spinChunks shorter compute operations
// rather than one monolithic op — a spin loop is iterations, not one
// straight-line burst. Total compute per load is spanCycles.
func Spin(st *Stopper, workingSetBase uint64) cpu.Program {
	const (
		spanCycles = 4096
		spinChunks = 4
		wsetBytes  = 16 << 10
	)
	i := 0
	phase := 0
	return cpu.ProgramFunc(func() (cpu.Op, bool) {
		if st.stopped {
			return cpu.Op{}, false
		}
		if phase < spinChunks {
			phase++
			return cpu.Op{Kind: cpu.OpCompute, Cycles: spanCycles / spinChunks}, true
		}
		phase = 0
		addr := workingSetBase + uint64(i%(wsetBytes/mem.LineBytes))*mem.LineBytes
		i++
		return cpu.Op{Kind: cpu.OpLoad, Addr: addr}, true
	})
}

// Intensity is the memory-access intensity of a MemoryHog contender,
// tuned — as in the paper — by the ratio of memory to non-memory
// instructions.
type Intensity int

const (
	Low Intensity = iota
	Medium
	High
	VeryHigh
)

func (i Intensity) String() string {
	switch i {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case VeryHigh:
		return "very high"
	}
	return "unknown"
}

// Levels lists all intensities in the order Fig. 13b sweeps them.
func Levels() []Intensity { return []Intensity{Low, Medium, High, VeryHigh} }

// mix returns (loads per iteration, compute cycles per iteration).
func (i Intensity) mix() (loads int, cycles int64) {
	switch i {
	case Low:
		return 1, 400
	case Medium:
		return 4, 200
	case High:
		return 8, 80
	case VeryHigh:
		return 12, 16
	}
	panic(fmt.Sprintf("contend: unknown intensity %d", int(i)))
}

// MemoryHog returns a memory-bound contender streaming over
// [base, base+footprint).
func MemoryHog(st *Stopper, base, footprint uint64, level Intensity) cpu.Program {
	if footprint < mem.LineBytes {
		panic("contend: footprint smaller than one line")
	}
	loads, cycles := level.mix()
	lines := footprint / mem.LineBytes
	var off uint64
	i := 0
	return cpu.ProgramFunc(func() (cpu.Op, bool) {
		if st.stopped && i == 0 {
			return cpu.Op{}, false
		}
		if i < loads {
			i++
			a := base + off*mem.LineBytes
			off = (off + 1) % lines
			return cpu.Op{Kind: cpu.OpLoad, Addr: a}, true
		}
		i = 0
		return cpu.Op{Kind: cpu.OpCompute, Cycles: cycles}, true
	})
}
