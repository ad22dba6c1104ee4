package transpose

import "testing"

func TestHWUnitCycles(t *testing.T) {
	u := DefaultHWUnit()
	if got := u.Cycles(0); got != 0 {
		t.Errorf("Cycles(0) = %d, want 0", got)
	}
	if got := u.Cycles(1); got != u.PipelineDepth+1 {
		t.Errorf("Cycles(1) = %d, want %d", got, u.PipelineDepth+1)
	}
	if got := u.Cycles(1000); got != u.PipelineDepth+1000 {
		t.Errorf("Cycles(1000) = %d, want %d", got, u.PipelineDepth+1000)
	}
}

func TestHWUnitNeverBottleneck(t *testing.T) {
	// One block per DCE cycle at 3.2 GHz is 204.8 GB/s, far above the
	// 19.2 GB/s channel peak the data stream can reach.
	u := DefaultHWUnit()
	bytesPerSec := float64(u.BlocksPerCycle) * BlockBytes * 3.2e9
	if bytesPerSec < 5*19.2e9 {
		t.Errorf("HW transpose throughput %.1f GB/s too low to be transparent", bytesPerSec/1e9)
	}
}
