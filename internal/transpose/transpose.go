// Package transpose holds the cost models of the data preprocessing that
// chip interleaving in UPMEM-style PIM DIMMs requires (paper Fig. 3).
//
// A DIMM built from x8 chips splits every 64-bit data word one byte per
// chip. A bank-level PIM core lives inside a single chip, so without help
// it would only ever see one byte of each word. The UPMEM runtime therefore
// transposes each 64-byte block — viewed as an 8x8 byte matrix of 8 words
// by 8 byte lanes — before the copy, so that each chip (byte lane) receives
// one complete original word. The same transform is applied on the way
// back. The simulator moves no real bytes through the transform; it charges
// its cost: SWCostCyclesPerBlock on the baseline's AVX software loop and
// HWUnit's pipeline in the DCE's preprocessing unit, where PIM-MMU moves it.
package transpose

// BlockBytes is the transpose granularity: 8 words x 8 byte lanes.
const BlockBytes = 64

// HWUnit models the DCE's hardware preprocessing unit (Section IV-C): a
// pipelined transpose engine. Throughput is one 64-byte block per engine
// cycle after a fixed pipeline fill latency; the DCE charges these costs
// when streaming data through the unit.
type HWUnit struct {
	// PipelineDepth is the fill latency in DCE cycles.
	PipelineDepth int64
	// BlocksPerCycle is the sustained throughput.
	BlocksPerCycle int64
}

// DefaultHWUnit matches the DCE at 3.2 GHz: 4-stage pipeline, one 64-byte
// block per cycle (204.8 GB/s — never the bottleneck, by design).
func DefaultHWUnit() HWUnit {
	return HWUnit{PipelineDepth: 4, BlocksPerCycle: 1}
}

// Cycles reports the engine-cycle cost of streaming n blocks through the
// unit.
func (u HWUnit) Cycles(blocks int64) int64 {
	if blocks <= 0 {
		return 0
	}
	return u.PipelineDepth + (blocks+u.BlocksPerCycle-1)/u.BlocksPerCycle
}

// SWCostCyclesPerBlock models the AVX-512 software transpose cost in CPU
// cycles per 64-byte block, measured from shuffle-based 8x8 byte
// transposes on Skylake-class cores (roughly 8 shuffle uops plus
// loads/stores per block).
const SWCostCyclesPerBlock = 6
