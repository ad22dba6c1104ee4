// Exported, plan-addressable result types: the pure data each
// experiment's compute phase produces and its render phase consumes.
// Every type here round-trips through gob (the result-cache payload
// format), so a cached entry is indistinguishable from a fresh compute.

package harness

import (
	"repro/internal/clock"
	"repro/internal/energy"
	"repro/internal/trace"
)

// Table1Data is the configuration snapshot the table1 experiment
// renders — captured from the default PIM-MMU config, not a live
// machine.
type Table1Data struct {
	CPUCores                  int
	CPUClockGHz               float64
	LoadBuffers, StoreBuffers int
	Quantum                   clock.Picos

	LLCMB, LLCWays int

	QueueDepth, DrainHi, DrainLo int

	DRAMChannels, DRAMRanks int
	DRAMGiB                 float64

	PIMChannels, PIMRanks int
	PIMCores              int
	MRAMMiB               uint64

	DCEClockGHz          float64
	DataBufKB, AddrBufKB int
}

// AreaData is the Section VI-C implementation-overhead snapshot.
type AreaData struct {
	DataKB, AddrKB int
	MM2            float64
	DieFrac        float64
}

// Fig4Row is one sampled window of a fig4 power trace.
type Fig4Row struct {
	T          int // window start, microseconds
	ActiveFrac float64
	Watts      float64
}

// Fig4Section is one direction's fig4 time series plus its transfer
// throughput.
type Fig4Section struct {
	Rows []Fig4Row
	Thr  float64
}

// Fig6Section is one design point's per-channel write-throughput shares
// over time (percentages per 100 us window).
type Fig6Section struct {
	Rows [][]float64
}

// TransferRecord is one whole-device transfer on a fresh machine, the
// record fig15a, fig15b, headline and fig16 all read: bytes, duration,
// and energy spent.
type TransferRecord struct {
	Bytes    uint64
	Duration clock.Picos
	Energy   energy.Breakdown
}

// Throughput is bytes per second.
func (t TransferRecord) Throughput() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.Bytes) / t.Duration.Seconds()
}

// HeadlinePoint is one (direction x size x design) measurement of the
// headline sweep.
type HeadlinePoint struct {
	Thr, Eff float64
}

// headlinePoints is headline's view of its records.
func headlinePoints(_ Scale, recs []TransferRecord) []HeadlinePoint {
	pts := make([]HeadlinePoint, len(recs))
	for i, t := range recs {
		pts[i] = HeadlinePoint{Thr: t.Throughput(), Eff: float64(t.Bytes) / t.Energy.Total()}
	}
	return pts
}

// ReplayPoint is one (workload x design) replay measurement.
type ReplayPoint struct {
	Thr  float64
	Hist trace.LatencyHist
}

// LoadPoint is one (gap x design) open-loop load measurement.
type LoadPoint struct {
	Thr          float64
	Total, Queue trace.LatencyHist
}
