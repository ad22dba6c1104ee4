package system

import (
	"repro/internal/core"
	"repro/internal/energy"
)

// ChannelStat is the per-PIM-channel slice of a TransferMeasurement.
type ChannelStat struct {
	BytesWritten uint64
	RowHitRate   float64
}

// TransferMeasurement is one design point's whole-device transfer
// outcome — pure data, so it round-trips through the result cache and
// is addressable from an experiment plan; everything the CLI reports
// print is captured here, not held in a live *System.
type TransferMeasurement struct {
	Res    XferResult
	Energy energy.Breakdown

	DRAMRead, DRAMWritten uint64
	PIMRead, PIMWritten   uint64
	PIMCh                 []ChannelStat
}

// PerCoreBytes is each PIM core's share of a whole-device transfer of
// totalBytes: rounded down to whole 64 B lines, and at least one line.
func (c Config) PerCoreBytes(totalBytes uint64) uint64 {
	return max(totalBytes/uint64(c.PIM.NumCores())&^63, 64)
}

// MeasureTransfer runs one whole-device transfer of totalBytes (split
// across every PIM core, floored to one line per core) and snapshots
// the result, the energy over the transfer, and the memory-system
// counters the detailed reports render: the one whole-device measurement.
func (s *System) MeasureTransfer(dir core.Direction, totalBytes uint64) TransferMeasurement {
	before := s.Activity()
	res := s.RunTransfer(s.TransferOp(dir, s.Cfg.PIM.NumCores(), s.Cfg.PerCoreBytes(totalBytes)))
	m := TransferMeasurement{Res: res, Energy: s.EnergyOver(before, s.Activity())}
	ds, ps := s.Mem.DRAM.Stats(), s.Mem.PIM.Stats()
	m.DRAMRead, m.DRAMWritten = ds.BytesRead(), ds.BytesWritten()
	m.PIMRead, m.PIMWritten = ps.BytesRead(), ps.BytesWritten()
	for _, c := range ps.Channels {
		m.PIMCh = append(m.PIMCh, ChannelStat{BytesWritten: c.BytesWritten, RowHitRate: c.RowHitRate()})
	}
	return m
}
