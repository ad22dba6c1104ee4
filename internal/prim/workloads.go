package prim

import (
	"fmt"

	"repro/internal/pim"
)

// Workload is one PrIM benchmark's timing descriptor: its transfer
// volumes and the baseline transfer share its kernel time is derived from.
type Workload struct {
	// Name is the PrIM short name (Fig. 16's x-axis).
	Name string
	// InBytesPerCore / OutBytesPerCore are the DRAM->PIM and PIM->DRAM
	// transfer volumes per PIM core for the default problem size.
	InBytesPerCore  uint64
	OutBytesPerCore uint64
	// BaselineTransferFraction is the fraction of baseline end-to-end time
	// spent in DRAM<->PIM transfers, estimated from the PrIM measurements
	// the paper reports (avg 63.7%, max 99.7%); the DPU kernel-time model
	// is calibrated from it.
	BaselineTransferFraction float64
}

// nominalBaselineBW is the measured baseline DRAM<->PIM throughput used
// to convert transfer fractions into kernel cycles (Section III-B: the
// software path sustains roughly 10 GB/s on the Table I system).
const nominalBaselineBW = 10e9

// KernelCycles derives the DPU kernel cycle count for a run on the given
// number of cores: the kernel time that makes the baseline transfer share
// equal BaselineTransferFraction at the nominal baseline bandwidth.
func (w Workload) KernelCycles(cores int) int64 {
	totalBytes := float64(w.InBytesPerCore+w.OutBytesPerCore) * float64(cores)
	txSecs := totalBytes / nominalBaselineBW
	f := w.BaselineTransferFraction
	tkSecs := txSecs * (1 - f) / f
	return int64(tkSecs * float64(pim.DPUClock))
}

// Validate reports descriptor errors.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("prim: unnamed workload")
	}
	if w.InBytesPerCore == 0 || w.InBytesPerCore%64 != 0 || w.OutBytesPerCore%64 != 0 {
		return fmt.Errorf("prim: %s: transfer sizes must be positive multiples of 64", w.Name)
	}
	if w.BaselineTransferFraction <= 0 || w.BaselineTransferFraction > 0.999 {
		return fmt.Errorf("prim: %s: transfer fraction %f out of (0, 0.999]", w.Name, w.BaselineTransferFraction)
	}
	return nil
}

// Suite returns the 16 PrIM workloads of Fig. 16, in the paper's order.
// Transfer volumes are per-core for the default 512-core problem; the
// transfer fractions follow the paper's baseline breakdown (avg 63.7%,
// TS nearly kernel-only at 0.3% transfer).
func Suite() []Workload {
	const mb = 1 << 20
	const kb = 1 << 10
	return []Workload{
		{"BFS", 1 * mb, 64 * kb, 0.45},
		{"BS", 1 * mb, 256 * kb, 0.95},
		{"GEMV", 1 * mb, 8 * kb, 0.50},
		{"HST-L", 1 * mb, 32 * kb, 0.45},
		{"HST-S", 1 * mb, 2 * kb, 0.45},
		{"MLP", 1 * mb, 32 * kb, 0.60},
		{"NW", 128 * kb, 128 * kb, 0.25},
		{"RED", 1 * mb, 64, 0.55},
		{"SCAN-RSS", 1 * mb, 1 * mb, 0.75},
		{"SCAN-SSA", 1 * mb, 1 * mb, 0.75},
		{"SEL", 1 * mb, 512 * kb, 0.80},
		{"SpMV", 1 * mb, 16 * kb, 0.55},
		{"TRNS", 1 * mb, 1 * mb, 0.90},
		{"TS", 1 * mb, 64 * kb, 0.003},
		{"UNI", 1 * mb, 512 * kb, 0.70},
		{"VA", 1 * mb, 512 * kb, 0.70},
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Suite() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
