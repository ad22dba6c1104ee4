package dram

import "fmt"

// Checker is a DDR4 protocol verifier: attached as an Observer, it
// validates every issued command against the JEDEC timing constraints and
// bank-state rules, independently of the scheduler's own bookkeeping:
// bank state, tRCD/tRAS/tRP/tRC, tRRD_S and tFAW, tRTP and tWR,
// tCCD_S/tCCD_L, data-bus overlap with the tRTRS bubble on a rank switch
// or a read->write turnaround, and tWTR_S/tWTR_L.
// It is the simulator's safety net — the property tests drive random
// traffic through a channel with a checker attached and assert zero
// violations.
type Checker struct {
	t    Timing
	geom struct{ ranks, bgs, banks int }

	banks []checkerBank // [rank][bg*banks+bank]
	rank  []checkerRank

	lastCASCycle int64
	lastCASKind  Cmd
	lastCASRank  int
	haveCAS      bool

	violations []string
}

type checkerBank struct {
	open      bool
	row       int
	actCycle  int64
	lastCAS   int64
	lastWrite int64 // WR CAS cycle, -1 never
	lastRead  int64
	preCycle  int64
	haveAct   bool
	havePre   bool
}

type checkerRank struct {
	acts        []int64 // history of ACT cycles for tFAW / tRRD
	lastCASBG   []int64 // per bank group, for tCCD_L
	lastWriteBG []int64 // per bank group WR CAS cycle, for tWTR_L
	lastWrite   int64   // WR CAS cycle in any bank group, for tWTR_S
	refUntil    int64   // busy with refresh until this cycle
}

// NewChecker builds a checker for one channel of the given config.
func NewChecker(cfg Config) *Checker {
	c := &Checker{t: cfg.Timing}
	c.geom.ranks = cfg.Geometry.Ranks
	c.geom.bgs = cfg.Geometry.BankGroups
	c.geom.banks = cfg.Geometry.Banks
	c.banks = make([]checkerBank, cfg.Geometry.Ranks*cfg.Geometry.BankGroups*cfg.Geometry.Banks)
	c.rank = make([]checkerRank, cfg.Geometry.Ranks)
	for r := range c.rank {
		c.rank[r].lastCASBG = make([]int64, cfg.Geometry.BankGroups)
		c.rank[r].lastWriteBG = make([]int64, cfg.Geometry.BankGroups)
		for i := range c.rank[r].lastCASBG {
			c.rank[r].lastCASBG[i] = -1 << 40
			c.rank[r].lastWriteBG[i] = -1 << 40
		}
		c.rank[r].lastWrite = -1 << 40
		c.rank[r].refUntil = -1 << 40
	}
	for i := range c.banks {
		c.banks[i].lastWrite = -1 << 40
		c.banks[i].lastRead = -1 << 40
	}
	return c
}

// Violations returns every recorded protocol violation.
func (c *Checker) Violations() []string { return c.violations }

func (c *Checker) fail(e CmdEvent, format string, args ...interface{}) {
	c.violations = append(c.violations,
		fmt.Sprintf("%v: %s", e, fmt.Sprintf(format, args...)))
}

func (c *Checker) bankOf(e CmdEvent) *checkerBank {
	idx := (e.Rank*c.geom.bgs+e.BankGrp)*c.geom.banks + e.Bank
	return &c.banks[idx]
}

// Command implements Observer.
func (c *Checker) Command(_ int, e CmdEvent) {
	t := &c.t
	switch e.Cmd {
	case CmdACT:
		b := c.bankOf(e)
		r := &c.rank[e.Rank]
		if b.open {
			c.fail(e, "ACT to open bank (row %d still open)", b.row)
		}
		if b.havePre && e.Cycle-b.preCycle < int64(t.RP) {
			c.fail(e, "tRP violated: PRE at %d", b.preCycle)
		}
		if b.haveAct && e.Cycle-b.actCycle < int64(t.RC) {
			c.fail(e, "tRC violated: last ACT at %d", b.actCycle)
		}
		if e.Cycle < r.refUntil {
			c.fail(e, "ACT during refresh (until %d)", r.refUntil)
		}
		// tRRD_S against the most recent ACT in the rank; tFAW against the
		// fourth-most-recent.
		n := len(r.acts)
		if n > 0 && e.Cycle-r.acts[n-1] < int64(t.RRDS) {
			c.fail(e, "tRRD_S violated: prev ACT at %d", r.acts[n-1])
		}
		if n >= 4 && e.Cycle-r.acts[n-4] < int64(t.FAW) {
			c.fail(e, "tFAW violated: 4th-previous ACT at %d", r.acts[n-4])
		}
		r.acts = append(r.acts, e.Cycle)
		if len(r.acts) > 8 {
			r.acts = r.acts[len(r.acts)-8:]
		}
		b.open, b.row = true, e.Row
		b.actCycle, b.haveAct = e.Cycle, true

	case CmdPRE:
		b := c.bankOf(e)
		if !b.open {
			// PRE to a closed bank is legal (PREA semantics) but our
			// controller never does it; flag it.
			c.fail(e, "PRE to closed bank")
			return
		}
		if e.Cycle-b.actCycle < int64(t.RAS) {
			c.fail(e, "tRAS violated: ACT at %d", b.actCycle)
		}
		if b.lastRead > -1<<39 && e.Cycle-b.lastRead < int64(t.RTP) {
			c.fail(e, "tRTP violated: RD at %d", b.lastRead)
		}
		if b.lastWrite > -1<<39 && e.Cycle-b.lastWrite < int64(t.CWL+t.BL+t.WR) {
			c.fail(e, "tWR violated: WR at %d", b.lastWrite)
		}
		b.open = false
		b.preCycle, b.havePre = e.Cycle, true

	case CmdRD, CmdWR:
		b := c.bankOf(e)
		r := &c.rank[e.Rank]
		if !b.open {
			c.fail(e, "CAS to closed bank")
		} else if b.row != e.Row {
			c.fail(e, "CAS row %d but open row is %d", e.Row, b.row)
		}
		if b.haveAct && e.Cycle-b.actCycle < int64(t.RCD) {
			c.fail(e, "tRCD violated: ACT at %d", b.actCycle)
		}
		if e.Cycle < r.refUntil {
			c.fail(e, "CAS during refresh (until %d)", r.refUntil)
		}
		// tCCD_L within the bank group.
		if last := r.lastCASBG[e.BankGrp]; e.Cycle-last < int64(t.CCDL) {
			c.fail(e, "tCCD_L violated: last CAS in bg at %d", last)
		}
		// tCCD_S channel-wide.
		if c.haveCAS && e.Cycle-c.lastCASCycle < int64(t.CCDS) {
			c.fail(e, "tCCD_S violated: last CAS at %d", c.lastCASCycle)
		}
		// Data-bus occupancy: two bursts may not overlap. Burst start for
		// RD is CAS+CL, for WR is CAS+CWL; both last BL cycles. A rank
		// switch or a read->write turnaround also needs a tRTRS bubble
		// between the bursts.
		if c.haveCAS {
			prevStart := c.lastCASCycle + int64(t.CL)
			if c.lastCASKind == CmdWR {
				prevStart = c.lastCASCycle + int64(t.CWL)
			}
			prevEnd := prevStart + int64(t.BL)
			curStart := e.Cycle + int64(t.CL)
			if e.Cmd == CmdWR {
				curStart = e.Cycle + int64(t.CWL)
			}
			switch {
			case curStart < prevEnd:
				c.fail(e, "data bus overlap: previous burst [%d,%d)", prevStart, prevEnd)
			case (e.Rank != c.lastCASRank || c.lastCASKind == CmdRD && e.Cmd == CmdWR) &&
				curStart < prevEnd+int64(t.RTRS):
				c.fail(e, "tRTRS violated: previous burst ends at %d", prevEnd)
			}
		}
		// tWTR: a RD after a WR burst in the same rank, longer within
		// the WR's bank group.
		if e.Cmd == CmdRD {
			if wr := r.lastWrite; e.Cycle < wr+int64(t.CWL+t.BL+t.WTRS) {
				c.fail(e, "tWTR_S violated: WR at %d", wr)
			}
			if wr := r.lastWriteBG[e.BankGrp]; e.Cycle < wr+int64(t.CWL+t.BL+t.WTRL) {
				c.fail(e, "tWTR_L violated: WR in bg at %d", wr)
			}
		}
		r.lastCASBG[e.BankGrp] = e.Cycle
		c.lastCASCycle, c.lastCASKind, c.lastCASRank = e.Cycle, e.Cmd, e.Rank
		c.haveCAS = true
		if e.Cmd == CmdWR {
			b.lastWrite = e.Cycle
			r.lastWrite = e.Cycle
			r.lastWriteBG[e.BankGrp] = e.Cycle
		} else {
			b.lastRead = e.Cycle
		}

	case CmdREF:
		r := &c.rank[e.Rank]
		for i := range c.banks {
			if i/(c.geom.bgs*c.geom.banks) == e.Rank && c.banks[i].open {
				c.fail(e, "REF with open bank %d", i)
			}
		}
		if e.Cycle < r.refUntil {
			c.fail(e, "REF during refresh (until %d)", r.refUntil)
		}
		r.refUntil = e.Cycle + int64(c.t.RFC)
	}
}
