package prim

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/system"
)

// Phase is the end-to-end time breakdown Fig. 16 plots: input transfer,
// kernel execution, output transfer.
type Phase struct {
	In     clock.Picos
	Kernel clock.Picos
	Out    clock.Picos
}

// Total is the end-to-end execution time.
func (p Phase) Total() clock.Picos { return p.In + p.Kernel + p.Out }

// TransferFraction is the share of end-to-end time spent in transfers.
func (p Phase) TransferFraction() float64 {
	t := p.Total()
	if t <= 0 {
		return 0
	}
	return float64(p.In+p.Out) / float64(t)
}

// RunEndToEnd executes one sized workload's end-to-end flow on the given
// machine: DRAM->PIM input transfer, DPU kernel (analytic time — the
// PIM-MMU does not change kernel execution, Section V), PIM->DRAM output
// transfer, each to or from every PIM core.
func RunEndToEnd(sys *system.System, r Scaled) Phase {
	cores := uint64(sys.Cfg.PIM.NumCores())
	ph := Phase{In: sys.MeasureTransfer(core.DRAMToPIM, r.InBytes*cores).Res.Duration}

	// Kernel: all DPUs run in lockstep; wall time is the cycle budget at
	// the DPU clock.
	ph.Kernel = sys.Device.KernelTime(r.KernelCycles)
	sys.Eng.RunUntil(sys.Eng.Now() + ph.Kernel)

	ph.Out = sys.MeasureTransfer(core.PIMToDRAM, r.OutBytes*cores).Res.Duration
	return ph
}
