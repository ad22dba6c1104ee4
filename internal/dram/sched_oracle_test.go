package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/sim"
)

// twoPassTryQueue is the FR-FCFS scan in its two-pass form, kept as the
// reference the one-pass tryQueue must match decision for decision.
// Pass 1 issues the first ready row hit; pass 2 gives each bank to its
// oldest non-hit request and issues the first ready ACT or PRE, skipping
// a precharge while a queued request still hits the open row. Ranks,
// banks and bank indices come from each request's location, not from
// the pending record's resolved pointers.
func (c *Channel) twoPassTryQueue(q []*pending, cyc int64, cov *oracleCoverage) (bool, int64) {
	wake := never
	if len(q) == 0 {
		return false, wake
	}
	scan := q
	if len(scan) > c.cfg.ScanWindow {
		scan = scan[:c.cfg.ScanWindow]
	}

	// Pass 1: first-ready row hit.
	for _, p := range scan {
		r := c.ranks[p.loc.Rank]
		if r.refreshing {
			continue
		}
		b := r.bank(p.loc, c.cfg.Geometry.Banks)
		if b.row != p.loc.Row {
			continue
		}
		ready := c.earliestCAS(p)
		if ready <= cyc {
			c.issueCAS(p, cyc)
			return true, 0
		}
		wake = min(wake, ready)
	}

	// Pass 2: oldest request per bank, prepare its row.
	owned := map[int]bool{}
	for _, p := range scan {
		r := c.ranks[p.loc.Rank]
		if r.refreshing {
			continue
		}
		b := r.bank(p.loc, c.cfg.Geometry.Banks)
		if b.row == p.loc.Row {
			continue
		}
		key := p.loc.BankID(c.cfg.Geometry)
		if owned[key] {
			continue
		}
		owned[key] = true
		if b.row < 0 {
			ready := c.earliestACT(p)
			if ready <= cyc {
				c.issueACT(p, cyc)
				return true, 0
			}
			wake = min(wake, ready)
			continue
		}
		if c.twoPassHasRowHitFor(p.loc, b.row) {
			cov.guarded++
			continue
		}
		ready := max(b.nextPRE, 0)
		if ready <= cyc {
			p.conflict = true
			c.issuePREBank(r, b)
			return true, 0
		}
		wake = min(wake, ready)
	}
	return false, wake
}

// twoPassHasRowHitFor reports whether any request in either queue's scan
// window targets the given bank's open row.
func (c *Channel) twoPassHasRowHitFor(loc addrmap.Loc, openRow int) bool {
	match := func(q []*pending) bool {
		n := len(q)
		if n > c.cfg.ScanWindow {
			n = c.cfg.ScanWindow
		}
		for _, p := range q[:n] {
			if p.loc.Rank == loc.Rank && p.loc.BankGroup == loc.BankGroup &&
				p.loc.Bank == loc.Bank && p.loc.Row == openRow {
				return true
			}
		}
		return false
	}
	return match(c.readQ) || match(c.writeQ)
}

// twoPassServeQueues is serveQueues over the two-pass reference scan.
func (c *Channel) twoPassServeQueues(cyc int64, cov *oracleCoverage) (bool, int64) {
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
	if issued, w := c.twoPassTryQueue(primary, cyc, cov); issued {
		return true, 0
	} else if issued, w2 := c.twoPassTryQueue(secondary, cyc, cov); issued {
		return true, 0
	} else {
		return false, min(w, w2)
	}
}

// oracleCoverage counts the situations the differential test reached, so
// the test fails rather than passes vacuously if the random states stop
// covering a branch.
type oracleCoverage struct {
	cmds       map[Cmd]int
	idle       int // ticks that issued nothing and returned a wake cycle
	guarded    int // conflicts held back by a queued row hit
	draining   int // ticks in write-drain mode
	refreshing int // ticks with a refreshing rank
	longQueue  int // ticks with a queue longer than the scan window
	bothQueued int // ticks with both queues non-empty
}

// cmdLog records a channel's issued commands.
type cmdLog []CmdEvent

func (l *cmdLog) Command(_ int, e CmdEvent) { *l = append(*l, e) }

// diffRig is one channel in a seeded random state.
type diffRig struct {
	eng *sim.Engine
	c   *Channel
	log *cmdLog
}

// newDiffRig builds a channel whose banks, rank and bus timing, refresh
// flags, drain mode and queues are drawn from seed, around a start cycle
// where some commands are ready and others are not. Few rows per bank
// make row hits, closed banks and conflicts all common.
func newDiffRig(seed int64) diffRig {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Geometry.Channels = 1
	cfg.Geometry.Rows = 4
	eng := sim.New()
	c := MustNew(eng, cfg, "diff").Channel(0)
	log := &cmdLog{}
	c.Observe(log)

	cyc := int64(1000 + rng.Intn(1000))
	eng.RunUntil(c.dom.Duration(cyc))
	near := func() int64 { return cyc + int64(rng.Intn(80)) - 30 }
	for _, r := range c.ranks {
		r.refreshing = rng.Intn(5) == 0
		r.refreshDue = cyc + int64(cfg.Timing.REFI)
		r.nextACT, r.nextRD = near(), near()
		for i := range r.nextCASbg {
			r.nextCASbg[i], r.nextACTbg[i], r.nextRDbg[i] = near(), near(), near()
		}
		for i := range r.faw {
			r.faw[i] = near() - int64(cfg.Timing.FAW)
		}
		r.fawIdx = rng.Intn(len(r.faw))
		for i := range r.banks {
			b := &r.banks[i]
			b.row = rng.Intn(cfg.Geometry.Rows+1) - 1
			b.nextACT, b.nextRD, b.nextWR, b.nextPRE = near(), near(), near(), near()
		}
	}
	c.nextCAS = near()
	if rng.Intn(4) > 0 {
		c.last = lastCAS{valid: true, cycle: near() - 10,
			kind: mem.Kind(rng.Intn(2)), rank: rng.Intn(cfg.Geometry.Ranks)}
	}
	c.drain = rng.Intn(2) == 0
	rig := diffRig{eng: eng, c: c, log: log}
	for n := rng.Intn(cfg.QueueDepth + 1); n > 0; n-- {
		rig.push(uint64(len(c.readQ)), mem.Read, randomLoc(rng, cfg.Geometry))
	}
	for n := rng.Intn(cfg.QueueDepth + 1); n > 0; n-- {
		rig.push(1<<20+uint64(len(c.writeQ)), mem.Write, randomLoc(rng, cfg.Geometry))
	}
	return rig
}

func randomLoc(rng *rand.Rand, g addrmap.Geometry) addrmap.Loc {
	return addrmap.Loc{Rank: rng.Intn(g.Ranks), BankGroup: rng.Intn(g.BankGroups),
		Bank: rng.Intn(g.Banks), Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)}
}

// push queues a request directly, without kicking the scheduler tick.
func (rig diffRig) push(id uint64, kind mem.Kind, loc addrmap.Loc) {
	q := &rig.c.readQ
	if kind == mem.Write {
		q = &rig.c.writeQ
	}
	if len(*q) < rig.c.cfg.QueueDepth {
		*q = append(*q, rig.c.newPending(&mem.Req{Addr: id * mem.LineBytes, Kind: kind}, loc))
	}
}

// stateDiff describes the first difference between two channels' queues,
// request flags, bank rows and command logs, or returns "".
func stateDiff(a, b diffRig) string {
	queues := [][2][]*pending{{a.c.readQ, b.c.readQ}, {a.c.writeQ, b.c.writeQ}}
	for qi, qs := range queues {
		if len(qs[0]) != len(qs[1]) {
			return fmt.Sprintf("queue %d: length %d vs %d", qi, len(qs[0]), len(qs[1]))
		}
		for i := range qs[0] {
			pa, pb := qs[0][i], qs[1][i]
			if pa.req.Addr != pb.req.Addr || pa.activated != pb.activated || pa.conflict != pb.conflict {
				return fmt.Sprintf("queue %d entry %d: %#x act=%v conf=%v vs %#x act=%v conf=%v", qi, i,
					pa.req.Addr, pa.activated, pa.conflict, pb.req.Addr, pb.activated, pb.conflict)
			}
		}
	}
	for ri := range a.c.ranks {
		for bi := range a.c.ranks[ri].banks {
			if ra, rb := a.c.ranks[ri].banks[bi].row, b.c.ranks[ri].banks[bi].row; ra != rb {
				return fmt.Sprintf("rank %d bank %d: row %d vs %d", ri, bi, ra, rb)
			}
		}
	}
	if len(*a.log) != len(*b.log) {
		return fmt.Sprintf("commands: %d vs %d", len(*a.log), len(*b.log))
	}
	for i := range *a.log {
		if (*a.log)[i] != (*b.log)[i] {
			return fmt.Sprintf("command %d: %v vs %v", i, (*a.log)[i], (*b.log)[i])
		}
	}
	return ""
}

// checkResolved verifies every queued request's resolved rank, bank and
// bank index against its location.
func checkResolved(t *testing.T, c *Channel) {
	t.Helper()
	for _, q := range [][]*pending{c.readQ, c.writeQ} {
		for _, p := range q {
			r := c.ranks[p.loc.Rank]
			if p.rank != r || p.bank != r.bank(p.loc, c.cfg.Geometry.Banks) ||
				p.bankIdx != p.loc.BankID(c.cfg.Geometry) {
				t.Fatalf("request %v resolved to the wrong rank or bank", p.loc)
			}
		}
	}
}

// TestOnePassMatchesTwoPass drives the one-pass scheduler and the
// two-pass reference from identical seeded random channel states, tick
// by tick, and requires identical decisions: whether a command issued,
// which command for which request (the command logs, queues and request
// flags), and the wake cycle when nothing issued. Between ticks both
// channels take the same new requests and refresh-flag flips.
func TestOnePassMatchesTwoPass(t *testing.T) {
	cov := oracleCoverage{cmds: map[Cmd]int{}}
	const seeds, ticks = 400, 64
	for seed := int64(1); seed <= seeds; seed++ {
		a, b := newDiffRig(seed), newDiffRig(seed)
		checkResolved(t, a.c)
		if d := stateDiff(a, b); d != "" {
			t.Fatalf("seed %d: rigs differ before the first tick: %s", seed, d)
		}
		rng := rand.New(rand.NewSource(-seed))
		cyc := a.c.dom.Cycles(a.eng.Now())
		next := uint64(1 << 30)
		for tick := 0; tick < ticks; tick++ {
			if rng.Intn(8) == 0 {
				r := rng.Intn(len(a.c.ranks))
				a.c.ranks[r].refreshing = !a.c.ranks[r].refreshing
				b.c.ranks[r].refreshing = a.c.ranks[r].refreshing
			}
			for n := rng.Intn(3); n > 0; n-- {
				kind, loc := mem.Kind(rng.Intn(2)), randomLoc(rng, a.c.cfg.Geometry)
				a.push(next, kind, loc)
				b.push(next, kind, loc)
				next++
			}
			checkResolved(t, a.c)
			for _, r := range a.c.ranks {
				if r.refreshing {
					cov.refreshing++
					break
				}
			}
			if len(a.c.readQ) > a.c.cfg.ScanWindow || len(a.c.writeQ) > a.c.cfg.ScanWindow {
				cov.longQueue++
			}
			if len(a.c.readQ) > 0 && len(a.c.writeQ) > 0 {
				cov.bothQueued++
			}

			logged := len(*a.log)
			issuedA, wakeA := a.c.serveQueues(cyc)
			issuedB, wakeB := b.c.twoPassServeQueues(cyc, &cov)
			if a.c.drain {
				cov.draining++
			}
			if issuedA != issuedB || wakeA != wakeB {
				t.Fatalf("seed %d tick %d cycle %d: one-pass (issued %v, wake %d), two-pass (issued %v, wake %d)",
					seed, tick, cyc, issuedA, wakeA, issuedB, wakeB)
			}
			if d := stateDiff(a, b); d != "" {
				t.Fatalf("seed %d tick %d cycle %d: %s", seed, tick, cyc, d)
			}
			if !issuedA && wakeA == never {
				break // nothing left to do
			}
			if issuedA {
				cov.cmds[(*a.log)[logged].Cmd]++
				cyc++
			} else {
				cov.idle++
				cyc = wakeA
			}
			a.eng.RunUntil(a.c.dom.Duration(cyc))
			b.eng.RunUntil(b.c.dom.Duration(cyc))
		}
	}
	t.Logf("coverage: %+v", cov)
	for _, cmd := range []Cmd{CmdACT, CmdPRE, CmdRD, CmdWR} {
		if cov.cmds[cmd] == 0 {
			t.Errorf("no %v issued", cmd)
		}
	}
	if cov.idle == 0 || cov.guarded == 0 || cov.draining == 0 || cov.refreshing == 0 ||
		cov.longQueue == 0 || cov.bothQueued == 0 {
		t.Errorf("random states missed a case: %+v", cov)
	}
}
