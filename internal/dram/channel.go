package dram

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config parameterizes one device set (one group of DIMMs behind a set of
// channels): either the conventional DRAM DIMMs or the PIM DIMMs.
type Config struct {
	// Geometry is the subsystem's dimensions.
	Geometry addrmap.Geometry
	// Timing is the DDR4 parameter set.
	Timing Timing
	// QueueDepth is the per-channel read and write request queue depth
	// (Table I: 64 entries each).
	QueueDepth int
	// WriteDrainHi/Lo are the write-queue watermarks: when the write queue
	// reaches Hi the controller switches to draining writes until it falls
	// to Lo.
	WriteDrainHi, WriteDrainLo int
	// ScanWindow caps how many queued requests the FR-FCFS scheduler
	// examines per cycle, modelling the finite pick window of a real
	// scheduler CAM.
	ScanWindow int
	// SeriesWindow, when positive, enables the per-channel write
	// bandwidth time series with the given bucket width.
	SeriesWindow clock.Picos
}

// DefaultConfig is the Table I memory-system configuration: DDR4-2400,
// 4 channels, 2 ranks per channel, 64-entry queues.
func DefaultConfig() Config {
	return Config{
		Geometry: addrmap.Geometry{
			Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4,
			Rows: 32768, Cols: 128,
		},
		Timing:       DDR42400(),
		QueueDepth:   64,
		WriteDrainHi: 32,
		WriteDrainLo: 8,
		ScanWindow:   24,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("dram: QueueDepth=%d must be positive", c.QueueDepth)
	}
	if c.WriteDrainHi > c.QueueDepth || c.WriteDrainLo >= c.WriteDrainHi {
		return fmt.Errorf("dram: bad drain watermarks lo=%d hi=%d depth=%d",
			c.WriteDrainLo, c.WriteDrainHi, c.QueueDepth)
	}
	if c.ScanWindow <= 0 {
		return fmt.Errorf("dram: ScanWindow=%d must be positive", c.ScanWindow)
	}
	return nil
}

// pending is a request in flight inside a channel controller. Records
// recycle through the channel's free list (freePend), so steady-state
// enqueueing allocates nothing. The target rank and bank are resolved
// once at enqueue, so the scheduler's scans never re-derive them.
type pending struct {
	req       *mem.Req
	loc       addrmap.Loc
	rank      *rankState
	bank      *bankState
	bankIdx   int      // rank-global bank index, loc.BankID
	activated bool     // this request caused an ACT (row miss)
	conflict  bool     // this request caused a PRE (row conflict)
	next      *pending // free list
}

// bankState tracks one bank's open row and per-command earliest-issue
// cycles.
type bankState struct {
	row     int // open row, or -1
	nextACT int64
	nextRD  int64
	nextWR  int64
	nextPRE int64
}

// rankState tracks rank-scope constraints: tRRD/tFAW activation limits,
// write-to-read turnaround, tCCD_L per bank group, and refresh.
type rankState struct {
	banks     []bankState // BankGroups*Banks, bank-group major
	nextCASbg []int64     // per bank group: earliest CAS (tCCD_L)
	nextACTbg []int64     // per bank group: earliest ACT (tRRD_L)
	nextACT   int64       // earliest ACT, any bank group (tRRD_S)
	nextRDbg  []int64     // per bank group: earliest RD after WR (tWTR_L)
	nextRD    int64       // earliest RD after WR, any bank group (tWTR_S)
	faw       [4]int64    // last four ACT cycles (ring)
	fawIdx    int

	refreshDue   int64
	refreshing   bool
	refreshUntil int64
}

func (r *rankState) bank(l addrmap.Loc, banksPerGroup int) *bankState {
	return &r.banks[l.BankGroup*banksPerGroup+l.Bank]
}

func (r *rankState) allClosed() bool {
	for i := range r.banks {
		if r.banks[i].row >= 0 {
			return false
		}
	}
	return true
}

// lastCAS remembers the previous column command for data-bus turnaround
// constraints.
type lastCAS struct {
	valid bool
	cycle int64
	kind  mem.Kind
	rank  int
}

// Channel is one DDR4 channel: an FR-FCFS controller plus the ranks and
// banks behind it. All timing bookkeeping is in command-clock cycles.
//
// On a sharded engine each channel schedules on its own event lane,
// "<set>:<id>" ("dram:0", "pim:3"). The scheduler tick and data-burst
// completions are lane-local unless they can touch the outside world
// (queue-space waiters to notify, a completion callback to invoke); the
// classification decides the frontier sequence of the events they
// schedule (see sim.Lane).
type Channel struct {
	sched sim.Scheduler
	cfg   Config
	dom   clock.Domain
	id    int
	name  string

	ranks   []*rankState
	readQ   []*pending
	writeQ  []*pending
	drain   bool
	last    lastCAS
	nextCAS int64 // channel scope: tCCD_S

	tickEv   sim.Event // the channel's one standing scheduler-tick event
	lastTick int64     // last cycle the scheduler ran (one command per cycle)
	waiters  []func()
	observer Observer
	// spareWaiters is the idle backing array of waiters (see notifySpace).
	spareWaiters []func()

	// hitMark/hitGen are the scheduler's row-hit guard, generation-stamped
	// so a rebuild allocates and clears nothing: hitMark[rank*banks+bank]
	// == hitGen marks a bank whose open row some request in either scan
	// window targets. hitValid reports whether the marks describe the
	// current tick (see rowHitQueued).
	hitMark  []uint64
	hitGen   uint64
	hitValid bool
	// casMark/casGen stamp, the same way, each bank whose row-hit CAS
	// readiness the current queue scan has already evaluated (see
	// tryQueue).
	casMark []uint64
	casGen  uint64

	// freeComp recycles data-burst completion records so the per-command
	// completion path performs no event allocation.
	freeComp *completion

	// freePend recycles pending records (see pending).
	freePend *pending

	stats *ChannelStats
}

func newChannel(eng *sim.Engine, cfg Config, id int, name string) *Channel {
	c := &Channel{
		sched:    eng.NewLane(fmt.Sprintf("%s:%d", name, id)),
		cfg:      cfg,
		dom:      cfg.Timing.Domain(),
		id:       id,
		name:     name,
		lastTick: -1,
		stats:    newChannelStats(cfg.SeriesWindow),
	}
	c.tickEv.Init(sim.HandlerFunc(c.tick))
	nBanks := cfg.Geometry.BankGroups * cfg.Geometry.Banks
	c.hitMark = make([]uint64, cfg.Geometry.Ranks*nBanks)
	c.casMark = make([]uint64, cfg.Geometry.Ranks*nBanks)
	for r := 0; r < cfg.Geometry.Ranks; r++ {
		rs := &rankState{
			banks:      make([]bankState, nBanks),
			nextCASbg:  make([]int64, cfg.Geometry.BankGroups),
			nextACTbg:  make([]int64, cfg.Geometry.BankGroups),
			nextRDbg:   make([]int64, cfg.Geometry.BankGroups),
			refreshDue: int64(cfg.Timing.REFI),
		}
		for i := range rs.banks {
			rs.banks[i].row = -1
		}
		// The tFAW window starts empty: pre-age the ring so the first four
		// activations are unconstrained.
		for i := range rs.faw {
			rs.faw[i] = -int64(cfg.Timing.FAW)
		}
		c.ranks = append(c.ranks, rs)
	}
	return c
}

// ID reports the channel index within its device set.
func (c *Channel) ID() int { return c.id }

// Stats exposes the channel's counters.
func (c *Channel) Stats() *ChannelStats { return c.stats }

// TryEnqueue places a decoded request in the appropriate queue. It reports
// false when that queue is full; the caller should register a WaitSpace
// callback and retry.
func (c *Channel) TryEnqueue(r *mem.Req, loc addrmap.Loc) bool {
	q := &c.readQ
	if r.Kind == mem.Write {
		q = &c.writeQ
	}
	if len(*q) >= c.cfg.QueueDepth {
		c.stats.QueueFull++
		return false
	}
	if len(c.readQ) == 0 && len(c.writeQ) == 0 {
		// Traffic resuming after an idle gap: the refreshes of that gap
		// happened invisibly, so bring the bookkeeping forward instead of
		// serially replaying them.
		c.catchUpRefresh(c.dom.Cycles(c.sched.Now()))
	}
	*q = append(*q, c.newPending(r, loc))
	c.kick()
	return true
}

// newPending takes a record from the free list and resolves its target
// rank and bank.
func (c *Channel) newPending(r *mem.Req, loc addrmap.Loc) *pending {
	p := c.freePend
	if p == nil {
		p = &pending{}
	} else {
		c.freePend = p.next
	}
	rs := c.ranks[loc.Rank]
	*p = pending{req: r, loc: loc, rank: rs,
		bank: rs.bank(loc, c.cfg.Geometry.Banks), bankIdx: loc.BankID(c.cfg.Geometry)}
	return p
}

// catchUpRefresh skips refresh intervals that elapsed while the channel
// was idle with all banks closed.
func (c *Channel) catchUpRefresh(cyc int64) {
	for _, r := range c.ranks {
		if !r.refreshing && r.allClosed() && r.refreshDue <= cyc {
			n := (cyc-r.refreshDue)/int64(c.cfg.Timing.REFI) + 1
			r.refreshDue += n * int64(c.cfg.Timing.REFI)
		}
	}
}

// WaitSpace registers a one-shot callback fired when queue space frees up.
// A waiter makes the next scheduler tick externally visible (it will
// notify host-side code), so any standing tick is promoted to a crossing
// event on sharded engines.
func (c *Channel) WaitSpace(fn func()) {
	c.waiters = append(c.waiters, fn)
	c.sched.Promote(&c.tickEv)
}

// notifySpace fires and clears the registered waiters. The waiter list
// alternates between two backing arrays, so steady-state registration
// allocates nothing; waiters registered by a firing callback land in the
// other array and wait for the next notification.
func (c *Channel) notifySpace() {
	if len(c.waiters) == 0 {
		return
	}
	ws := c.waiters
	c.waiters, c.spareWaiters = c.spareWaiters[:0], nil
	for i, fn := range ws {
		ws[i] = nil
		fn()
	}
	c.spareWaiters = ws[:0]
}

// kick schedules a scheduler tick at the next cycle boundary. If the
// standing tick event is already pending at a later time (for example a
// distant refresh deadline), it is pulled forward in place.
func (c *Channel) kick() {
	c.kickAt(c.dom.Align(c.sched.Now()))
}

// kickAtCycle schedules a tick at an absolute cycle.
func (c *Channel) kickAtCycle(cyc int64) {
	c.kickAt(c.dom.Duration(cyc))
}

func (c *Channel) kickAt(t clock.Picos) {
	// Never re-enter a cycle the scheduler already ran: one command per
	// command-clock cycle.
	if min := c.dom.Duration(c.lastTick + 1); t < min {
		t = min
	}
	if c.tickEv.Scheduled() && c.tickEv.When() <= t {
		return
	}
	// A tick with no waiters touches only channel state; with waiters it
	// will call back into host-side code (notifySpace).
	if len(c.waiters) == 0 {
		c.sched.ScheduleLocal(&c.tickEv, t)
	} else {
		c.sched.Schedule(&c.tickEv, t)
	}
}

func (c *Channel) tick(now clock.Picos) {
	cyc := c.dom.Cycles(now)
	if cyc <= c.lastTick {
		return // defensive: one command per command-clock cycle
	}
	c.lastTick = cyc
	issued, wake := c.tryIssue(cyc)
	switch {
	case issued:
		// One command per cycle: try again next cycle.
		c.kickAtCycle(cyc + 1)
	case wake != never:
		c.kickAtCycle(wake)
	default:
		// Idle. Fast-forward refresh bookkeeping so a long idle span does
		// not accumulate a refresh debt (the refreshes happen invisibly
		// while no traffic is queued and all banks are closed).
		if len(c.readQ) == 0 && len(c.writeQ) == 0 {
			c.catchUpRefresh(cyc)
		}
	}
}
