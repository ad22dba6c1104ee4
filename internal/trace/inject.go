package trace

import (
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

// injector issues line requests through a mem.Port on the simulation
// engine at their due times. Backpressure (a full controller queue, the
// in-flight cap) makes a request issue late but never moves a due time,
// so the wait shows up as queueing delay (issue - due) and request order
// is preserved. Due times come from one of two sources, indexed by
// position:
//
//   - replay (arrivals == nil): position i is record i at its own TSC;
//     the record's lines share that TSC and step through its footprint
//     by mem.LineBytes;
//   - open loop: position i is arrival i of a fixed schedule, taking
//     records cyclically, one line per arrival.
//
// Replayer and Driver are the two faces of this one injector.
type injector struct {
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

	// res holds every counter both faces report: Queue is issue - due,
	// Service is completion - issue, Total is completion - due. maxLag
	// is the largest lag behind the due time, sampled at issue and at
	// every stall.
	res    LoadResult
	maxLag clock.Picos
	onDone func()
}

// init binds the injector to its engine, port and records and
// preallocates MaxInFlight slots.
func (in *injector) init(eng *sim.Engine, port mem.Port, recs []Record, arrivals []clock.Picos,
	maxInFlight int, cacheable bool) {
	*in = injector{eng: eng, port: port, recs: recs, arrivals: arrivals, cacheable: cacheable}
	in.issueEv.Init(sim.HandlerFunc(in.issue))
	in.spaceFn = in.onSpace
	in.free = make([]*slot, maxInFlight)
	for i := range in.free {
		s := &slot{}
		s.req.OnDone = func(now clock.Picos) { in.complete(s, now) }
		in.free[i] = s
	}
}

// positions is the number of due-time positions: records in replay,
// arrivals in open loop.
func (in *injector) positions() int {
	if in.arrivals == nil {
		return len(in.recs)
	}
	return len(in.arrivals)
}

// due reports position i's due time.
func (in *injector) due(i int) clock.Picos {
	if in.arrivals == nil {
		return in.start + in.recs[i].TSC
	}
	return in.start + in.arrivals[i]
}

// lines reports how many line requests position i expands to.
func (in *injector) lines(i int) uint32 {
	if in.arrivals == nil {
		return in.recs[i].Lines()
	}
	return 1
}

// record reports the record supplying position i's address and kind.
func (in *injector) record(i int) *Record {
	if in.arrivals == nil {
		return &in.recs[i]
	}
	return &in.recs[i%len(in.recs)]
}

// begin starts the run: replay kicks issue at start, open loop at its
// first arrival (an empty schedule finishes at once). onDone runs inside
// the engine when every position has issued and completed.
//
// An injector runs exactly once: a second start would silently resume
// from stale cursors with accumulated counters, so it panics instead.
func (in *injector) begin(onDone func()) {
	if in.started {
		panic("trace: Start called twice; a Replayer or Driver runs once — build a fresh one per run")
	}
	in.started = true
	in.onDone = onDone
	in.start = in.eng.Now()
	in.res.Start = in.start
	in.res.Arrivals = uint64(len(in.arrivals))
	kick := in.start
	if in.arrivals != nil {
		if len(in.arrivals) == 0 {
			in.maybeFinish(in.start)
			return
		}
		kick += in.arrivals[0]
	}
	in.eng.Schedule(&in.issueEv, kick)
}

// sampleLag folds a pending line's lag behind its due time into maxLag.
// It runs at every stall (slot exhaustion, enqueue rejection) as well as
// at issue, so a run inspected mid-stall, or one whose tail the port
// never accepts, reports how far issue actually fell behind.
func (in *injector) sampleLag(now, due clock.Picos) {
	if lag := now - due; lag > in.maxLag {
		in.maxLag = lag
	}
}

// noteBacklog samples the backlog: lines due at now that have not yet
// issued. The seen cursor is monotone, so the scan is linear in the
// positions over the whole run.
func (in *injector) noteBacklog(now clock.Picos) {
	for in.seen < in.positions() && in.due(in.seen) <= now {
		in.seenN += uint64(in.lines(in.seen))
		in.seen++
	}
	if q := in.seenN - in.res.Issued; q > in.res.MaxQueued {
		in.res.MaxQueued = q
	}
}

// issue fires due lines until it runs ahead of the due times
// (reschedule), out of in-flight slots (a completion re-kicks), or into
// a full controller queue (WaitSpace re-kicks).
func (in *injector) issue(now clock.Picos) {
	in.noteBacklog(now)
	for in.next < in.positions() {
		due := in.due(in.next)
		if now < due {
			in.eng.Schedule(&in.issueEv, due)
			return
		}
		if len(in.free) == 0 {
			in.sampleLag(now, due)
			return
		}
		rec := in.record(in.next)
		s := in.free[len(in.free)-1]
		addr := rec.Addr + uint64(in.line)*mem.LineBytes
		s.req.Addr = addr
		if rec.Kind == KindWrite {
			s.req.Kind = mem.Write
		} else {
			s.req.Kind = mem.Read
		}
		s.req.Cacheable = in.cacheable && mem.SpaceOf(addr) == mem.SpaceDRAM
		s.due = due
		s.issued = now
		if !in.port.TryEnqueue(&s.req) {
			in.res.Retries++
			in.sampleLag(now, due)
			if !in.waiting {
				in.waiting = true
				in.port.WaitSpace(in.spaceFn)
			}
			return
		}
		in.free = in.free[:len(in.free)-1]
		in.inFlight++
		in.res.Issued++
		if s.req.Kind == mem.Write {
			in.res.BytesWritten += mem.LineBytes
		} else {
			in.res.BytesRead += mem.LineBytes
		}
		in.res.QueueSum += now - due
		in.res.Queue.Observe(now - due)
		in.sampleLag(now, due)
		if in.line++; in.line >= in.lines(in.next) {
			in.line = 0
			in.next++
		}
	}
	in.maybeFinish(now)
}

// onSpace is the WaitSpace callback: queue space freed, resume issue.
func (in *injector) onSpace() {
	in.waiting = false
	in.issue(in.eng.Now())
}

// complete retires one request and resumes issue if it was blocked on
// the in-flight cap.
func (in *injector) complete(s *slot, now clock.Picos) {
	in.inFlight--
	in.res.Completed++
	sv, tt := now-s.issued, now-s.due
	in.res.ServiceSum += sv
	in.res.TotalSum += tt
	in.res.Service.Observe(sv)
	in.res.Total.Observe(tt)
	in.free = append(in.free, s)
	if in.next < in.positions() {
		if !in.issueEv.Scheduled() && !in.waiting {
			in.issue(now)
		}
		return
	}
	in.maybeFinish(now)
}

// maybeFinish reports completion once every line issued and completed.
func (in *injector) maybeFinish(now clock.Picos) {
	if in.finished || in.next < in.positions() || in.inFlight > 0 {
		return
	}
	in.finished = true
	in.res.End = now
	in.onDone()
}
