package system_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/system"
)

// benchTransfer measures the paper's headline path: each iteration
// builds a fresh Table I machine of design d and runs a whole-device
// 1 MiB DRAM->PIM transfer on it, as every harness transfer record
// does. Besides ns/op and allocs/op it reports host nanoseconds per
// fired engine event.
func benchTransfer(b *testing.B, d system.Design) {
	cfg := system.DefaultConfig(d)
	var events uint64
	b.ReportAllocs()
	for b.Loop() {
		s := system.MustNew(cfg)
		s.MeasureTransfer(core.DRAMToPIM, 1<<20)
		events += s.Eng.Fired()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkEngineDCETransfer is the PIM-MMU path: the DCE streams the
// transfer and PIM-MS schedules its PIM-side writes.
func BenchmarkEngineDCETransfer(b *testing.B) { benchTransfer(b, system.PIMMMU) }

// BenchmarkEngineBaseTransfer is the baseline path: CPU threads run the
// software copy loop.
func BenchmarkEngineBaseTransfer(b *testing.B) { benchTransfer(b, system.Base) }
