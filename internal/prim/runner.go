package prim

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/system"
)

// Phase is the end-to-end time breakdown Fig. 16 plots: input transfer,
// kernel execution, output transfer.
type Phase struct {
	Workload string
	Design   system.Design
	In       clock.Picos
	Kernel   clock.Picos
	Out      clock.Picos
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

// RunEndToEnd executes one workload's end-to-end flow on the given
// machine: DRAM->PIM input transfer, DPU kernel (analytic time — the
// PIM-MMU does not change kernel execution, Section V), PIM->DRAM output
// transfer. The scale factor shrinks the default problem (1.0) for quick
// runs; transfer volumes scale, the kernel model scales with them.
func RunEndToEnd(sys *system.System, w Workload, scale float64) Phase {
	if scale <= 0 {
		scale = 1
	}
	cores := sys.Cfg.PIM.NumCores()
	scaleBytes := func(b uint64) uint64 {
		v := uint64(float64(b)*scale) &^ 63
		if v < 64 {
			v = 64
		}
		return v
	}
	inBytes := scaleBytes(w.InBytesPerCore)
	outBytes := scaleBytes(w.OutBytesPerCore)

	ph := Phase{Workload: w.Name, Design: sys.Cfg.Design}
	rIn := sys.RunTransfer(sys.TransferOp(core.DRAMToPIM, cores, inBytes))
	ph.In = rIn.Duration

	// Kernel: all DPUs run in lockstep; wall time is the cycle budget at
	// the DPU clock, scaled with the problem size.
	kc := int64(float64(w.KernelCycles(cores)) * scale)
	ph.Kernel = sys.Device.KernelTime(kc)
	sys.Eng.RunUntil(sys.Eng.Now() + ph.Kernel)

	rOut := sys.RunTransfer(sys.TransferOp(core.PIMToDRAM, cores, outBytes))
	ph.Out = rOut.Duration
	return ph
}
