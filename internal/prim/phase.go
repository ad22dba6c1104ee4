package prim

import "repro/internal/clock"

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
