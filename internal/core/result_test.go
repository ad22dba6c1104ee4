package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/system"
)

// A DCE transfer's result is measured by system.XferResult: the op's
// bytes over the span the engine took, and no throughput at zero span.
func TestResultThroughput(t *testing.T) {
	s := system.MustNew(system.DefaultConfig(system.PIMMMU))
	op := s.TransferOp(core.DRAMToPIM, 64, 4096)
	r := s.RunTransfer(op)
	if r.Bytes != op.Bytes() || r.Duration <= 0 {
		t.Fatalf("result %+v, want %d bytes over a positive span", r, op.Bytes())
	}
	if got, want := r.Throughput(), float64(r.Bytes)/r.Duration.Seconds(); got != want {
		t.Errorf("Throughput = %v, want %v", got, want)
	}
	if s.DCE.BytesMoved != r.Bytes {
		t.Errorf("engine moved %d bytes, result reports %d", s.DCE.BytesMoved, r.Bytes)
	}
	if (system.XferResult{Bytes: r.Bytes}).Throughput() != 0 {
		t.Error("zero-duration throughput not 0")
	}
}
