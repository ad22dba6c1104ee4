package xfer_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/system"
	"repro/internal/xfer"
)

// Each software copy's result is measured by system.XferResult: the
// bytes the copy covers over its span, and no throughput at zero span.
func TestResultHelpers(t *testing.T) {
	s := system.MustNew(system.DefaultConfig(system.Base))
	op := s.TransferOp(core.PIMToDRAM, 64, 4096)
	cases := []struct {
		name string
		res  system.XferResult
		want uint64
	}{
		{"baseline", s.RunTransfer(op), op.Bytes()},
		{"memcpy", s.RunMemcpy(64 << 10), 64 << 10},
		{"stream", s.RunStream(xfer.DefaultStreamConfig(), 64), uint64(xfer.DefaultStreamConfig().Threads) * 64 * 64},
	}
	for _, c := range cases {
		r := c.res
		if r.Bytes != c.want || r.Duration <= 0 {
			t.Errorf("%s: result %+v, want %d bytes over a positive span", c.name, r, c.want)
			continue
		}
		if got, want := r.Throughput(), float64(r.Bytes)/r.Duration.Seconds(); got != want {
			t.Errorf("%s: Throughput = %v, want %v", c.name, got, want)
		}
	}
	if (system.XferResult{}).Throughput() != 0 {
		t.Error("empty result throughput != 0")
	}
}
