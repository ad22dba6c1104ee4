// Package dram implements a cycle-level DDR4 memory-system model: banks,
// bank groups, ranks and channels with the full DDR4 timing constraint set,
// driven by per-channel FR-FCFS controllers with separate read/write request
// queues and write-drain watermarks. It is the repository's substitute for
// the Ramulator back-end the paper extends (Section V).
package dram

import (
	"fmt"

	"repro/internal/clock"
)

// Timing holds the DDR4 timing parameters, all in command-clock cycles.
// Field names follow the JEDEC DDR4 specification.
type Timing struct {
	// Clock is the command-clock frequency (half the MT/s data rate).
	Clock clock.Hz

	CL  int // CAS (read) latency
	CWL int // CAS write latency
	BL  int // burst length on the command clock (BL8 => 4)

	RCD int // ACT -> CAS, same bank
	RP  int // PRE -> ACT, same bank
	RAS int // ACT -> PRE, same bank
	RC  int // ACT -> ACT, same bank

	CCDS int // CAS -> CAS, different bank group
	CCDL int // CAS -> CAS, same bank group
	RRDS int // ACT -> ACT, different bank group, same rank
	RRDL int // ACT -> ACT, same bank group, same rank
	FAW  int // four-activate window per rank

	WR   int // write recovery: end of write burst -> PRE
	WTRS int // end of write burst -> RD, different bank group, same rank
	WTRL int // end of write burst -> RD, same bank group, same rank
	RTP  int // RD -> PRE, same bank

	RFC  int // refresh cycle time
	REFI int // average refresh interval

	RTRS int // rank-to-rank bus switch penalty
}

// DDR42400 is the DDR4-2400R (CL17) timing set used for both the DRAM and
// the PIM DIMMs in Table I. Values follow JEDEC DDR4-2400 speed-bin tables
// for an 8 Gb device (tRFC = 350 ns).
func DDR42400() Timing {
	return Timing{
		Clock: 1200 * clock.MHz,
		CL:    17,
		CWL:   12,
		BL:    4,
		RCD:   17,
		RP:    17,
		RAS:   39,
		RC:    56,
		CCDS:  4,
		CCDL:  6,
		RRDS:  4,
		RRDL:  6,
		FAW:   26,
		WR:    18,
		WTRS:  3,
		WTRL:  9,
		RTP:   9,
		RFC:   420,  // 350 ns at 1.2 GHz
		REFI:  9360, // 7.8 us at 1.2 GHz
		RTRS:  2,
	}
}

// Validate reports an error for obviously inconsistent parameter sets.
func (t Timing) Validate() error {
	if t.Clock <= 0 {
		return fmt.Errorf("dram: non-positive clock %d", t.Clock)
	}
	pos := map[string]int{
		"CL": t.CL, "CWL": t.CWL, "BL": t.BL, "RCD": t.RCD, "RP": t.RP,
		"RAS": t.RAS, "RC": t.RC, "CCDS": t.CCDS, "CCDL": t.CCDL,
		"RRDS": t.RRDS, "RRDL": t.RRDL, "FAW": t.FAW, "WR": t.WR,
		"WTRS": t.WTRS, "WTRL": t.WTRL, "RTP": t.RTP, "RFC": t.RFC,
		"REFI": t.REFI,
	}
	for name, v := range pos {
		if v <= 0 {
			return fmt.Errorf("dram: timing %s=%d must be positive", name, v)
		}
	}
	if t.RC < t.RAS+t.RP {
		return fmt.Errorf("dram: tRC=%d < tRAS+tRP=%d", t.RC, t.RAS+t.RP)
	}
	if t.CCDL < t.CCDS {
		return fmt.Errorf("dram: tCCD_L=%d < tCCD_S=%d", t.CCDL, t.CCDS)
	}
	if t.RRDL < t.RRDS {
		return fmt.Errorf("dram: tRRD_L=%d < tRRD_S=%d", t.RRDL, t.RRDS)
	}
	if t.FAW < 4*t.RRDS {
		return fmt.Errorf("dram: tFAW=%d < 4*tRRD_S=%d", t.FAW, 4*t.RRDS)
	}
	if t.RTRS < 0 {
		return fmt.Errorf("dram: tRTRS=%d must be non-negative", t.RTRS)
	}
	return nil
}

// Domain returns the command-clock domain.
func (t Timing) Domain() clock.Domain { return clock.NewDomain(t.Clock) }
