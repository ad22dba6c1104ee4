package trace

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// slot is one in-flight line request. Slots are preallocated and
// recycled, and each binds its completion closure once, so steady-state
// injection performs no per-request allocation.
type slot struct {
	req    mem.Req
	due    clock.Picos
	issued clock.Picos
}

// Driver issues line requests through a mem.Port on the simulation
// engine at their due times. Backpressure (a full controller queue, the
// in-flight cap) makes a request issue late but never moves a due time,
// so the wait shows up as queueing delay (issue - due) and request order
// is preserved. Due times come from one of two sources, indexed by
// position:
//
//   - ProcessReplay (arrivals == nil): position i is record i at its own
//     TSC; the record's lines share that TSC and step through its
//     footprint by mem.LineBytes;
//   - an open-loop process: position i is arrival i of a fixed schedule,
//     taking records cyclically, one line per arrival.
type Driver struct {
	eng       *sim.Engine
	port      mem.Port
	recs      []Record
	arrivals  []clock.Picos // open-loop offsets from start; nil in replay
	cacheable bool

	issueEv sim.Event
	spaceFn func()
	start   clock.Picos

	next     int    // position of the next line to issue
	line     uint32 // next line within that position
	seen     int    // positions observed due, for the backlog (monotone)
	seenN    uint64 // lines in those positions
	inFlight int
	waiting  bool // a WaitSpace callback is registered
	started  bool
	finished bool

	free []*slot

	// res holds every counter: Queue is issue - due, Service is
	// completion - issue, Total is completion - due, and Slip is the
	// largest lag behind a due time.
	res    LoadResult
	onDone func(LoadResult)
}

// NewDriver validates the configuration, materializes the arrival
// schedule, and builds a driver bound to the engine and port, with
// MaxInFlight slots preallocated. The record slice supplies addresses
// and kinds (cycled when arrivals outnumber records) and is not copied;
// the caller must not mutate it during the run. Only a replay accepts
// an empty record stream.
func NewDriver(eng *sim.Engine, port mem.Port, recs []Record, cfg DriverConfig) (*Driver, error) {
	arrivals, err := ArrivalSchedule(cfg)
	if err != nil {
		return nil, err
	}
	if err := Validate(recs); err != nil {
		return nil, err
	}
	if arrivals != nil && len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty record stream")
	}
	d := &Driver{eng: eng, port: port, recs: recs, arrivals: arrivals, cacheable: cfg.Cacheable}
	d.issueEv.Init(sim.HandlerFunc(d.issue))
	d.spaceFn = d.onSpace
	d.free = make([]*slot, cfg.MaxInFlight)
	for i := range d.free {
		s := &slot{}
		s.req.OnDone = func(now clock.Picos) { d.complete(s, now) }
		d.free[i] = s
	}
	return d, nil
}

// Start begins the run by kicking issue at the engine's current time
// (every schedule's first arrival is at offset 0). onDone runs (inside
// the engine) when every line has issued and completed; an empty replay
// finishes at once. Start does not run the engine.
//
// A Driver runs exactly once: a second Start would silently resume from
// stale cursors with accumulated counters, so it panics instead.
func (d *Driver) Start(onDone func(LoadResult)) {
	if d.started {
		panic("trace: Start called twice; a Driver runs once — build a fresh one per run")
	}
	d.started = true
	d.onDone = onDone
	d.start = d.eng.Now()
	d.res.Start = d.start
	for i := 0; i < d.positions(); i++ {
		d.res.Arrivals += uint64(d.lines(i))
	}
	d.eng.Schedule(&d.issueEv, d.start)
}

// positions is the number of due-time positions: records in replay,
// arrivals in open loop.
func (d *Driver) positions() int {
	if d.arrivals == nil {
		return len(d.recs)
	}
	return len(d.arrivals)
}

// due reports position i's due time.
func (d *Driver) due(i int) clock.Picos {
	if d.arrivals == nil {
		return d.start + d.recs[i].TSC
	}
	return d.start + d.arrivals[i]
}

// lines reports how many line requests position i expands to.
func (d *Driver) lines(i int) uint32 {
	if d.arrivals == nil {
		return d.recs[i].Lines()
	}
	return 1
}

// record reports the record supplying position i's address and kind.
func (d *Driver) record(i int) *Record {
	if d.arrivals == nil {
		return &d.recs[i]
	}
	return &d.recs[i%len(d.recs)]
}

// sampleLag folds a pending line's lag behind its due time into Slip.
// It runs at every stall (slot exhaustion, enqueue rejection) as well as
// at issue, so Slip holds the lag a stall built up even before the stalled
// line issues.
func (d *Driver) sampleLag(now, due clock.Picos) {
	if lag := now - due; lag > d.res.Slip {
		d.res.Slip = lag
	}
}

// noteBacklog samples the backlog: lines due at now that have not yet
// issued. The seen cursor is monotone, so the scan is linear in the
// positions over the whole run.
func (d *Driver) noteBacklog(now clock.Picos) {
	for d.seen < d.positions() && d.due(d.seen) <= now {
		d.seenN += uint64(d.lines(d.seen))
		d.seen++
	}
	if q := d.seenN - d.res.Issued; q > d.res.MaxQueued {
		d.res.MaxQueued = q
	}
}

// issue fires due lines until it runs ahead of the due times
// (reschedule), out of in-flight slots (a completion re-kicks), or into
// a full controller queue (WaitSpace re-kicks).
func (d *Driver) issue(now clock.Picos) {
	d.noteBacklog(now)
	for d.next < d.positions() {
		due := d.due(d.next)
		if now < due {
			d.eng.Schedule(&d.issueEv, due)
			return
		}
		if len(d.free) == 0 {
			d.sampleLag(now, due)
			return
		}
		rec := d.record(d.next)
		s := d.free[len(d.free)-1]
		addr := rec.Addr + uint64(d.line)*mem.LineBytes
		s.req.Addr = addr
		if rec.Kind == KindWrite {
			s.req.Kind = mem.Write
		} else {
			s.req.Kind = mem.Read
		}
		s.req.Cacheable = d.cacheable && mem.SpaceOf(addr) == mem.SpaceDRAM
		s.due = due
		s.issued = now
		if !d.port.TryEnqueue(&s.req) {
			d.res.Retries++
			d.sampleLag(now, due)
			if !d.waiting {
				d.waiting = true
				d.port.WaitSpace(d.spaceFn)
			}
			return
		}
		d.free = d.free[:len(d.free)-1]
		d.inFlight++
		d.res.Issued++
		if s.req.Kind == mem.Write {
			d.res.BytesWritten += mem.LineBytes
		} else {
			d.res.BytesRead += mem.LineBytes
		}
		d.res.QueueSum += now - due
		d.res.Queue.Observe(now - due)
		d.sampleLag(now, due)
		if d.line++; d.line >= d.lines(d.next) {
			d.line = 0
			d.next++
		}
	}
	d.maybeFinish(now)
}

// onSpace is the WaitSpace callback: queue space freed, resume issue.
func (d *Driver) onSpace() {
	d.waiting = false
	d.issue(d.eng.Now())
}

// complete retires one request and resumes issue if it was blocked on
// the in-flight cap.
func (d *Driver) complete(s *slot, now clock.Picos) {
	d.inFlight--
	d.res.Completed++
	sv, tt := now-s.issued, now-s.due
	d.res.ServiceSum += sv
	d.res.TotalSum += tt
	d.res.Service.Observe(sv)
	d.res.Total.Observe(tt)
	d.free = append(d.free, s)
	if d.next < d.positions() {
		if !d.issueEv.Scheduled() && !d.waiting {
			d.issue(now)
		}
		return
	}
	d.maybeFinish(now)
}

// maybeFinish reports completion once every line issued and completed.
func (d *Driver) maybeFinish(now clock.Picos) {
	if d.finished || d.next < d.positions() || d.inFlight > 0 {
		return
	}
	d.finished = true
	d.res.End = now
	if d.onDone != nil {
		d.onDone(d.res)
	}
}
