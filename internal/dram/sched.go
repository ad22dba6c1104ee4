package dram

import (
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// never is the "no wake needed" sentinel for scheduler wake times, far
// beyond any reachable cycle count.
const never = int64(1) << 62

// tryIssue attempts to issue one command at cycle cyc. It returns whether
// a command was issued and, if not, the earliest cycle at which the
// scheduler should try again (never when there is nothing to do).
//
// Priority order, per cycle:
//  1. refresh management (overdue refreshes block their rank),
//  2. a row-hit CAS from the serving queue (FR part of FR-FCFS),
//  3. the oldest request's next needed command, ACT or PRE (FCFS part).
func (c *Channel) tryIssue(cyc int64) (bool, int64) {
	wake := never
	t := &c.cfg.Timing

	// --- Refresh ---
	for _, r := range c.ranks {
		if r.refreshing {
			if cyc >= r.refreshUntil {
				r.refreshing = false
			} else {
				wake = min(wake, r.refreshUntil)
				continue
			}
		}
		if cyc >= r.refreshDue {
			// Close every open bank, then issue REF.
			if !r.allClosed() {
				for i := range r.banks {
					b := &r.banks[i]
					if b.row < 0 {
						continue
					}
					if cyc >= b.nextPRE {
						c.issuePREBank(r, b)
						return true, 0
					}
					wake = min(wake, b.nextPRE)
				}
				continue
			}
			r.refreshing = true
			r.refreshUntil = cyc + int64(t.RFC)
			r.refreshDue += int64(t.REFI)
			for i := range r.banks {
				r.banks[i].nextACT = max(r.banks[i].nextACT, r.refreshUntil)
			}
			c.stats.Refs++
			c.emit(CmdEvent{Cycle: cyc, Cmd: CmdREF, Rank: c.rankIndex(r),
				Bank: -1, BankGrp: -1, Row: -1, Col: -1})
			return true, 0
		}
		// Stay awake for the next refresh only while there is state to
		// manage; fully idle closed ranks fast-forward in tick().
		if len(c.readQ)+len(c.writeQ) > 0 || !r.allClosed() {
			wake = min(wake, r.refreshDue)
		}
	}

	issued, w := c.serveQueues(cyc)
	if issued {
		return true, 0
	}
	return false, min(wake, w)
}

// serveQueues picks the serving direction under the write-drain policy
// and issues at most one command from the request queues. Like tryIssue
// it returns whether a command issued and, if not, the earliest retry
// cycle.
func (c *Channel) serveQueues(cyc int64) (bool, int64) {
	if c.drain && len(c.writeQ) <= c.cfg.WriteDrainLo {
		c.drain = false
	}
	if !c.drain && len(c.writeQ) >= c.cfg.WriteDrainHi {
		c.drain = true
	}
	primary, secondary := c.readQ, c.writeQ
	if c.drain || len(c.readQ) == 0 {
		primary, secondary = c.writeQ, c.readQ
	}
	c.hitValid = false // any row-hit marks describe an earlier tick
	// Prefer the primary queue; if nothing in it can issue this cycle,
	// serve the other queue opportunistically (this is what keeps posted
	// writes from starving while a steady read stream holds the bus).
	issued, wake := c.tryQueue(primary, cyc)
	if issued {
		return true, 0
	}
	issued, w := c.tryQueue(secondary, cyc)
	if issued {
		return true, 0
	}
	return false, min(wake, w)
}

// tryQueue attempts to issue one command on behalf of the given queue,
// returning the earliest retry cycle when it cannot. Requests to a
// refreshing rank wait.
//
// It scans the queue's window once, oldest first. The first ready row
// hit issues at once: no ACT or PRE outranks a row hit. Meanwhile the
// first non-hit request whose bank's next command (ACT on a closed bank,
// PRE on a conflicting one) is ready is remembered; it issues when the
// scan ends without a ready row hit. Requests to one bank share that
// command's readiness and its row-hit guard, so the remembered request
// is its bank's oldest non-hit one, as FCFS wants, and younger requests
// to a bank only repeat its wake cycle. Row hits to one bank share
// their CAS readiness too (one queue holds one request kind, and the
// bank fixes rank and bank group), so only a bank's first hit is
// evaluated: it was not ready, or it would have issued, and a younger
// hit would only repeat its wake cycle. Decisions and wake cycle are
// therefore exactly those of two passes over the window, hits first, with
// each bank owned by its oldest non-hit request: neither pass changes
// channel state before it issues.
func (c *Channel) tryQueue(q []*pending, cyc int64) (bool, int64) {
	if len(q) > c.cfg.ScanWindow {
		q = q[:c.cfg.ScanWindow]
	}
	wake := never
	var prep *pending
	c.casGen++
	for _, p := range q {
		if p.rank.refreshing {
			continue
		}
		b := p.bank
		if b.row == p.loc.Row {
			if c.casMark[p.bankIdx] == c.casGen {
				continue // an earlier hit to this bank was not ready
			}
			c.casMark[p.bankIdx] = c.casGen
			ready := c.earliestCAS(p)
			if ready <= cyc {
				c.issueCAS(p, cyc)
				return true, 0
			}
			wake = min(wake, ready)
			continue
		}
		if prep != nil {
			continue // only a row hit can still outrank the chosen command
		}
		var ready int64
		switch {
		case b.row < 0:
			ready = c.earliestACT(p)
		case c.rowHitQueued(p):
			// Conflict, but a queued row hit still wants the open row:
			// closing it would waste that hit.
			continue
		default:
			ready = b.nextPRE
		}
		if ready <= cyc {
			prep = p
			continue
		}
		wake = min(wake, ready)
	}
	switch {
	case prep == nil:
		return false, wake
	case prep.bank.row < 0:
		c.issueACT(prep, cyc)
	default:
		prep.conflict = true
		c.issuePREBank(prep.rank, prep.bank)
	}
	return true, 0
}

// rowHitQueued reports whether any request in either queue's scan window
// targets the open row of p's bank, so the scheduler should not
// precharge it yet. The marks are built on the first call of a tick;
// they stay exact for the rest of the tick because no command issues
// before the scheduler returns.
func (c *Channel) rowHitQueued(p *pending) bool {
	if !c.hitValid {
		c.markRowHits()
	}
	return c.hitMark[p.bankIdx] == c.hitGen
}

// markRowHits stamps, in one pass over both scan windows, the bank of
// every queued row hit.
func (c *Channel) markRowHits() {
	c.hitValid = true
	c.hitGen++
	for _, q := range [2][]*pending{c.readQ, c.writeQ} {
		if len(q) > c.cfg.ScanWindow {
			q = q[:c.cfg.ScanWindow]
		}
		for _, p := range q {
			if p.bank.row == p.loc.Row {
				c.hitMark[p.bankIdx] = c.hitGen
			}
		}
	}
}

// earliestACT computes the first cycle an ACT for p may issue.
func (c *Channel) earliestACT(p *pending) int64 {
	t := &c.cfg.Timing
	r, b := p.rank, p.bank
	ready := max(b.nextACT, r.nextACT)
	ready = max(ready, r.nextACTbg[p.loc.BankGroup])
	// tFAW: the fifth ACT must wait for the oldest of the last four.
	ready = max(ready, r.faw[r.fawIdx]+int64(t.FAW))
	return ready
}

// earliestCAS computes the first cycle the column command for p may issue,
// assuming its row is open.
func (c *Channel) earliestCAS(p *pending) int64 {
	r, b := p.rank, p.bank
	var ready int64
	if p.req.Kind == mem.Read {
		ready = b.nextRD
		ready = max(ready, r.nextRD)                    // tWTR_S
		ready = max(ready, r.nextRDbg[p.loc.BankGroup]) // tWTR_L
	} else {
		ready = b.nextWR
	}
	ready = max(ready, r.nextCASbg[p.loc.BankGroup]) // tCCD_L
	ready = max(ready, c.nextCAS)                    // tCCD_S
	ready = max(ready, c.busReady(p.req.Kind, p.loc.Rank))
	return ready
}

// busReady applies shared data-bus occupancy and turnaround constraints
// relative to the previous column command.
func (c *Channel) busReady(kind mem.Kind, rank int) int64 {
	if !c.last.valid {
		return 0
	}
	t := &c.cfg.Timing
	l := c.last
	switch {
	case l.kind == mem.Read && kind == mem.Read:
		if l.rank != rank {
			return l.cycle + int64(t.BL+t.RTRS)
		}
		return l.cycle + int64(t.BL)
	case l.kind == mem.Read && kind == mem.Write:
		// Read-to-write turnaround: the write burst must start after the
		// read burst plus a bus-turnaround bubble.
		return l.cycle + int64(t.CL-t.CWL+t.BL+t.RTRS)
	case l.kind == mem.Write && kind == mem.Write:
		if l.rank != rank {
			return l.cycle + int64(t.BL+t.RTRS)
		}
		return l.cycle + int64(t.BL)
	default: // write -> read
		if l.rank != rank {
			// Cross-rank: only the bus matters (tWTR is rank-scoped).
			return l.cycle + int64(t.CWL+t.BL+t.RTRS-t.CL)
		}
		// Same rank: tWTR constraints are in rankState.nextRD*.
		return l.cycle + int64(t.BL)
	}
}

// issueACT opens p's row.
func (c *Channel) issueACT(p *pending, cyc int64) {
	t := &c.cfg.Timing
	r, b := p.rank, p.bank
	c.emit(CmdEvent{Cycle: cyc, Cmd: CmdACT, Rank: p.loc.Rank,
		BankGrp: p.loc.BankGroup, Bank: p.loc.Bank, Row: p.loc.Row, Col: -1})
	b.row = p.loc.Row
	b.nextRD = cyc + int64(t.RCD)
	b.nextWR = cyc + int64(t.RCD)
	b.nextPRE = cyc + int64(t.RAS)
	b.nextACT = cyc + int64(t.RC)
	r.nextACT = max(r.nextACT, cyc+int64(t.RRDS))
	r.nextACTbg[p.loc.BankGroup] = max(r.nextACTbg[p.loc.BankGroup], cyc+int64(t.RRDL))
	r.faw[r.fawIdx] = cyc
	r.fawIdx = (r.fawIdx + 1) % len(r.faw)
	p.activated = true
	c.stats.Acts++
}

// issuePREBank closes a bank belonging to rank r.
func (c *Channel) issuePREBank(r *rankState, b *bankState) {
	t := &c.cfg.Timing
	cyc := c.dom.Cycles(c.sched.Now())
	if c.observer != nil {
		bg, bk := c.locOfBank(r, b)
		c.emit(CmdEvent{Cycle: cyc, Cmd: CmdPRE, Rank: c.rankIndex(r),
			BankGrp: bg, Bank: bk, Row: -1, Col: -1})
	}
	b.row = -1
	b.nextACT = max(b.nextACT, cyc+int64(t.RP))
	c.stats.Pres++
}

// issueCAS issues the column command for p, removes it from its queue, and
// schedules its data-burst completion.
func (c *Channel) issueCAS(p *pending, cyc int64) {
	t := &c.cfg.Timing
	r, b := p.rank, p.bank

	r.nextCASbg[p.loc.BankGroup] = cyc + int64(t.CCDL)
	c.nextCAS = cyc + int64(t.CCDS)
	c.last = lastCAS{valid: true, cycle: cyc, kind: p.req.Kind, rank: p.loc.Rank}

	var doneCycle int64
	if p.req.Kind == mem.Read {
		c.emitCAS(p, cyc, CmdRD)
		b.nextPRE = max(b.nextPRE, cyc+int64(t.RTP))
		doneCycle = cyc + int64(t.CL+t.BL)
		c.stats.Reads++
		c.removeFrom(&c.readQ, p)
	} else {
		c.emitCAS(p, cyc, CmdWR)
		burstEnd := cyc + int64(t.CWL+t.BL)
		b.nextPRE = max(b.nextPRE, burstEnd+int64(t.WR))
		r.nextRD = max(r.nextRD, burstEnd+int64(t.WTRS))
		r.nextRDbg[p.loc.BankGroup] = max(r.nextRDbg[p.loc.BankGroup], burstEnd+int64(t.WTRL))
		doneCycle = burstEnd
		c.stats.Writes++
		c.removeFrom(&c.writeQ, p)
	}

	switch {
	case p.conflict:
		c.stats.RowConflicts++
	case p.activated:
		c.stats.RowMisses++
	default:
		c.stats.RowHits++
	}

	cp := c.freeComp
	if cp == nil {
		cp = &completion{c: c}
		cp.ev.Init(cp)
	} else {
		c.freeComp = cp.next
		cp.next = nil
	}
	cp.req = p.req
	// A completion with no callback only updates channel-local stats; one
	// with a callback crosses back into the requester.
	if p.req.OnDone == nil {
		c.sched.ScheduleLocal(&cp.ev, c.dom.Duration(doneCycle))
	} else {
		c.sched.Schedule(&cp.ev, c.dom.Duration(doneCycle))
	}
	c.notifySpace()

	// The request left its queue and every field has been read: recycle.
	p.req = nil
	p.next = c.freePend
	c.freePend = p
}

// completion is a pooled data-burst completion record: the standing event
// fires when the burst finishes on the data bus, accounts the bytes, and
// returns itself to the channel's free list.
type completion struct {
	ev   sim.Event
	c    *Channel
	req  *mem.Req
	next *completion // free list
}

// OnEvent implements sim.Handler.
func (cp *completion) OnEvent(now clock.Picos) {
	c, req := cp.c, cp.req
	cp.req = nil
	cp.next = c.freeComp
	c.freeComp = cp
	if req.Kind == mem.Read {
		c.stats.BytesRead += mem.LineBytes
	} else {
		c.stats.BytesWritten += mem.LineBytes
		if c.stats.WriteSeries != nil {
			c.stats.WriteSeries.Add(now, mem.LineBytes)
		}
	}
	if req.OnDone != nil {
		req.OnDone(now)
	}
}

func (c *Channel) removeFrom(q *[]*pending, p *pending) {
	for i, e := range *q {
		if e == p {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
	panic("dram: request not in queue")
}

// Idle reports whether the channel has no queued or in-flight work.
func (c *Channel) Idle() bool { return len(c.readQ) == 0 && len(c.writeQ) == 0 }
