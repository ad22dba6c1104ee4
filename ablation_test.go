// Design ablations: each mechanism the model credits for PIM-MMU's gain
// moves throughput the way its design argues. Figures in the comments
// are one 2 MiB DRAM->PIM transfer across every PIM core.
package pimmmu_test

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/system"
	"repro/internal/xfer"
)

// transfer2MiB runs one 2 MiB DRAM->PIM transfer across every PIM core.
func transfer2MiB(s *system.System) system.XferResult {
	return s.MeasureTransfer(core.DRAMToPIM, 2<<20).Res
}

// Algorithm 1 beats channel round-robin alone, which beats sequential
// issue (5.21x > 3.64x > 1), at an equal in-flight window.
func TestAblationIssueOrder(t *testing.T) {
	thr := func(usePIMMS, chRR bool) float64 {
		cfg := system.DefaultConfig(system.PIMMMU)
		cfg.DCE.UsePIMMS, cfg.DCE.ChannelRRWithoutPIMMS = usePIMMS, chRR
		cfg.DCE.DMAWindow = cfg.DCE.DataBufBytes / 64
		return transfer2MiB(system.MustNew(cfg)).Throughput()
	}
	if seq, chRR, alg1 := thr(false, false), thr(false, true), thr(true, false); !(alg1 > chRR && chRR > seq) {
		t.Errorf("Algorithm 1 %.2fx, channel RR %.2fx of sequential; want Algorithm 1 > channel RR > 1", alg1/seq, chRR/seq)
	}
}

// The vanilla DMA engine's throughput does not fall as its in-flight
// window grows (5.67, 9.88, 11.48, 11.65 GB/s).
func TestAblationDCEWindow(t *testing.T) {
	prev := 0.0
	for _, window := range []int{4, 8, 32, 128} {
		cfg := system.DefaultConfig(system.BaseDH)
		cfg.DCE.DMAWindow = window
		thr := transfer2MiB(system.MustNew(cfg)).Throughput()
		if thr < prev {
			t.Errorf("window %d: %.2f GB/s, below the smaller window's %.2f", window, thr/1e9, prev/1e9)
		}
		prev = thr
	}
}

// XOR hashing gains on a row-sized stride, the stream that defeats the
// MLP-centric mapping without it (2.99x).
func TestAblationXORHash(t *testing.T) {
	thr := func(mapping memsys.MappingMode) float64 {
		cfg := system.DefaultConfig(system.PIMMMU)
		cfg.Mem.Mapping = mapping
		stream := xfer.DefaultStreamConfig()
		stream.StrideLines = 128
		return system.MustNew(cfg).RunStream(stream, 1<<11).Throughput()
	}
	if gain := thr(memsys.MapHetMap) / thr(memsys.MapHetMapNoHash); gain <= 1 {
		t.Errorf("XOR hash gain %.2fx on a row-sized stride, want > 1", gain)
	}
}

// Beside eight spinning contenders, the baseline's transfer takes longer
// as the OS quantum grows (0.71, 1.71, 4.21 ms).
func TestAblationOSQuantum(t *testing.T) {
	prev := clock.Picos(0)
	for _, q := range []clock.Picos{clock.Millisecond / 2, 3 * clock.Millisecond / 2, 4 * clock.Millisecond} {
		cfg := system.DefaultConfig(system.Base)
		cfg.CPU.Quantum = q
		s := system.MustNew(cfg)
		s.SpinContenders(8)
		d := transfer2MiB(s).Duration
		if d <= prev {
			t.Errorf("quantum %v: transfer %v, not longer than at the shorter quantum (%v)", q, d, prev)
		}
		prev = d
	}
}
