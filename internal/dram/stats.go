package dram

import (
	"repro/internal/clock"
	"repro/internal/stats"
)

// ChannelStats accumulates per-channel counters. Command counts feed the
// energy model; byte counts feed the bandwidth results and the optional
// write series the per-channel breakdown of Fig. 6; row-buffer and
// queue-full counters validate the scheduler.
type ChannelStats struct {
	Reads  uint64 // RD commands issued
	Writes uint64 // WR commands issued
	Acts   uint64 // ACT commands issued
	Pres   uint64 // PRE commands issued
	Refs   uint64 // REF commands issued

	RowHits      uint64 // CAS served from an already-open row
	RowMisses    uint64 // CAS that required an ACT
	RowConflicts uint64 // CAS that required a PRE first

	BytesRead    uint64
	BytesWritten uint64

	QueueFull uint64 // TryEnqueue rejections

	// WriteSeries, when enabled, buckets completed write bytes by time
	// window.
	WriteSeries *stats.Series
}

func newChannelStats(window clock.Picos) *ChannelStats {
	s := &ChannelStats{}
	if window > 0 {
		s.WriteSeries = stats.NewSeries(window)
	}
	return s
}

// CAS is the total number of column commands.
func (s *ChannelStats) CAS() uint64 { return s.Reads + s.Writes }

// RowHitRate reports the fraction of CAS commands that hit an open row.
func (s *ChannelStats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Stats aggregates counters over a set of channels.
type Stats struct {
	Channels []*ChannelStats
}

// BytesRead sums read bytes across channels.
func (s Stats) BytesRead() uint64 {
	var t uint64
	for _, c := range s.Channels {
		t += c.BytesRead
	}
	return t
}

// BytesWritten sums written bytes across channels.
func (s Stats) BytesWritten() uint64 {
	var t uint64
	for _, c := range s.Channels {
		t += c.BytesWritten
	}
	return t
}

// Acts sums ACT commands across channels.
func (s Stats) Acts() uint64 {
	var t uint64
	for _, c := range s.Channels {
		t += c.Acts
	}
	return t
}

// Refs sums REF commands across channels.
func (s Stats) Refs() uint64 {
	var t uint64
	for _, c := range s.Channels {
		t += c.Refs
	}
	return t
}

// CAS sums column commands across channels.
func (s Stats) CAS() uint64 {
	var t uint64
	for _, c := range s.Channels {
		t += c.CAS()
	}
	return t
}
