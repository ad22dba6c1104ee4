// Laned execution: the sharded engine class.
//
// A sharded engine partitions the event queue into lanes, one per
// component that claims one (NewLane): the DDR4 channels of both device
// sets and the DCE. Lane 0 — the host lane — is the engine's own heap
// and carries everything else: the LLC/memsys front end, the CPU cores,
// the OS scheduler, tickers and closures. A lane is one shard of the
// event queue with its own intrusive heap and its own serially assigned
// sequence numbers.
//
// Every event fires serially, one at a time, in a canonical order across
// the heaps: (timestamp, schedule timestamp, frontier sequence, lane,
// per-lane seq) — see headBefore. The frontier sequence is a global
// counter stamped on every event scheduled from host code or from a
// crossing event's handler. An event scheduled by a lane-local event's
// handler instead inherits that event's stamp, so a lane-local chain
// carries the stamp of the crossing (or host) event that started it.
//
// Every lane event is classified at schedule time:
//
//   - local: firing it touches only its lane's state (a channel scheduler
//     tick with no registered waiters, a data-burst completion with no
//     completion callback);
//   - crossing: firing it may touch state outside its lane (a completion
//     that invokes a caller's OnDone, a tick that will notify queue-space
//     waiters, any DCE event).
//
// The classification only decides which frontier sequence the handler's
// own schedules carry; it never delays or reorders the event itself.
//
// The plain engine orders same-instant events by insertion alone, so the
// two engine classes can break ties differently on some workloads (fig8,
// fig14, a Fig. 13 contended transfer). Both orders are deterministic.
// Only a non-zero system.Config.Shards selects this engine: no harness
// experiment, CLI flag or serve request does, and the end-to-end
// benchmark's contention workload is its one user outside tests.
package sim

import (
	"repro/internal/clock"
)

// Scheduler is the scheduling surface a timed component binds its standing
// events to: the plain engine itself, or one lane of a sharded engine.
// Components that can classify their events (see ScheduleLocal) should
// hold a Scheduler instead of an *Engine so they shard transparently.
type Scheduler interface {
	// Now reports the current simulated time.
	Now() clock.Picos
	// Schedule places a crossing event: one whose handler may touch state
	// outside the component's lane.
	Schedule(ev *Event, t clock.Picos)
	// ScheduleLocal places a lane-local event: the caller asserts the
	// handler touches nothing outside its lane. On the plain engine this is
	// identical to Schedule.
	ScheduleLocal(ev *Event, t clock.Picos)
	// Cancel removes the event if scheduled.
	Cancel(ev *Event)
	// Promote reclassifies an already scheduled local event as crossing
	// (a waiter registered against the component after the event was
	// scheduled). No-op when unscheduled or already crossing.
	Promote(ev *Event)
}

// ScheduleLocal on the plain engine is plain Schedule: everything shares
// one heap, so locality carries no meaning.
func (e *Engine) ScheduleLocal(ev *Event, t clock.Picos) { e.Schedule(ev, t) }

// Promote is a no-op on the plain engine.
func (e *Engine) Promote(*Event) {}

var _ Scheduler = (*Engine)(nil)
var _ Scheduler = (*Lane)(nil)

// NewSharded returns an engine whose components may claim per-shard event
// lanes (NewLane).
func NewSharded() *Engine {
	return &Engine{laned: true}
}

// NewLane claims a fresh event lane named name. Lane ids follow claim
// order and are part of the canonical event order, so a machine must
// claim its lanes in a fixed order. On the plain engine NewLane returns
// the engine itself, so components shard transparently.
func (e *Engine) NewLane(name string) Scheduler {
	if !e.laned {
		return e
	}
	l := &Lane{eng: e, id: len(e.lanes) + 1, name: name}
	e.lanes = append(e.lanes, l)
	return l
}

// Lane is one shard of a sharded engine's event queue.
type Lane struct {
	eng  *Engine
	id   int
	name string

	seq  uint64
	heap evHeap // all scheduled events, (at, seq) order

	// curXseq/firingLocal drive frontier-sequence inheritance: while the
	// lane fires one of its local events, events the handler schedules
	// inherit curXseq (see the package comment).
	curXseq     uint64
	firingLocal bool

	// Instrumentation (ShardStats).
	fired     uint64
	crossings uint64
}

// Now reports the engine clock.
func (l *Lane) Now() clock.Picos { return l.eng.now }

// Schedule places ev as a crossing event.
func (l *Lane) Schedule(ev *Event, t clock.Picos) { l.schedule(ev, t, true) }

// ScheduleLocal places ev as a lane-local event.
func (l *Lane) ScheduleLocal(ev *Event, t clock.Picos) { l.schedule(ev, t, false) }

func (l *Lane) schedule(ev *Event, t clock.Picos, crossing bool) {
	now := l.eng.now
	if t < now {
		panic("sim: event scheduled in the past")
	}
	if ev.h == nil {
		panic("sim: event with no handler (missing Init)")
	}
	if ev.pos != 0 && ev.lane != l {
		panic("sim: event rescheduled across lanes")
	}
	ev.lane = l
	l.seq++
	ev.schedAt = now
	ev.crossing = crossing
	// Frontier-sequence stamp: an event scheduled by one of this lane's
	// local events inherits the firing event's stamp, so a local chain
	// carries its root's stamp; every other schedule (host code, a
	// crossing event's handler) takes a fresh stamp from the engine
	// counter.
	if l.firingLocal {
		ev.xseq = l.curXseq
	} else {
		l.eng.xseq++
		ev.xseq = l.eng.xseq
	}
	l.heap.set(ev, t, l.seq)
}

// Cancel removes ev from the lane.
func (l *Lane) Cancel(ev *Event) {
	if ev.pos == 0 {
		return
	}
	if ev.lane != l {
		panic("sim: Cancel on another lane's event")
	}
	l.heap.remove(ev)
}

// Promote reclassifies a scheduled local event as crossing.
func (l *Lane) Promote(ev *Event) {
	if ev.pos != 0 && ev.lane == l {
		ev.crossing = true
	}
}

// headBefore is the canonical order across heaps: timestamp, then
// schedule timestamp, then the frontier sequence stamped at schedule
// time, then lane, then per-lane seq.
func headBefore(a *Event, aLane int, b *Event, bLane int) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.xseq != b.xseq {
		return a.xseq < b.xseq
	}
	if aLane != bLane {
		return aLane < bLane
	}
	return a.seq < b.seq
}

// minHead finds the globally earliest event under the canonical order
// (lane 0 = the host heap).
func (e *Engine) minHead() (*Event, int) {
	var best *Event
	bestLane := 0
	if len(e.heap) > 0 {
		best = e.heap.head()
	}
	for _, l := range e.lanes {
		if len(l.heap) == 0 {
			continue
		}
		if hd := l.heap.head(); best == nil || headBefore(hd, l.id, best, bestLane) {
			best, bestLane = hd, l.id
		}
	}
	return best, bestLane
}

// lanedStep fires the single earliest event under the canonical order,
// ignoring events beyond limit. It reports false when nothing remains in
// range.
func (e *Engine) lanedStep(limit clock.Picos) bool {
	best, bestLane := e.minHead()
	if best == nil || best.at > limit {
		return false
	}
	e.now = best.at
	e.fired++
	if bestLane == 0 {
		e.heap.pop()
		best.h.OnEvent(e.now)
		return true
	}
	l := e.lanes[bestLane-1]
	l.heap.pop()
	l.fired++
	if best.crossing {
		l.crossings++
		best.h.OnEvent(e.now)
		return true
	}
	l.curXseq = best.xseq
	l.firingLocal = true
	best.h.OnEvent(e.now)
	l.firingLocal = false
	return true
}

// LaneStats is one lane's instrumentation snapshot (see ShardStats).
type LaneStats struct {
	Name string
	// Fired counts events fired on the lane; Crossings is the crossing
	// subset.
	Fired     uint64
	Crossings uint64
	// WindowFired is always 0: every event fires serially.
	WindowFired uint64
	// Pending is the lane's scheduled-but-unfired event count.
	Pending int
}

// ShardStats is a snapshot of a sharded engine's per-lane counters. A
// plain engine reports a zero value with nil Lanes.
type ShardStats struct {
	// HostFired/HostPending describe the host lane (lane 0).
	HostFired   uint64
	HostPending int
	Lanes       []LaneStats
}

// ShardStats snapshots the engine's per-lane instrumentation counters.
func (e *Engine) ShardStats() ShardStats {
	if !e.laned {
		return ShardStats{}
	}
	st := ShardStats{HostFired: e.fired, HostPending: len(e.heap)}
	for _, l := range e.lanes {
		st.HostFired -= l.fired
		st.Lanes = append(st.Lanes, LaneStats{
			Name:      l.name,
			Fired:     l.fired,
			Crossings: l.crossings,
			Pending:   len(l.heap),
		})
	}
	return st
}
