// Package sim implements the discrete-event simulation engine that drives
// every timed component in the repository: DDR4 channel controllers, CPU
// cores, the OS thread scheduler, the Data Copy Engine, and workload agents.
//
// The engine is a single-threaded priority queue of events. Determinism
// is guaranteed: events at the same timestamp fire in insertion order
// (and a reschedule counts as a fresh insertion), so repeated runs of the
// same configuration produce bit-identical results. NewSharded builds the
// second engine class, which partitions the queue into per-component
// lanes merged in a canonical order — see sharded.go.
//
// The queue (queue.go) is a binary min-heap whose slots hold chains of
// same-instant events: the DDR4 channels of a machine tick on shared
// clock edges, so a schedule onto an instant that already holds events
// appends to that instant's chain in O(1) instead of sifting through the
// heap, and the chain's events later pop without a sift. Chains change no
// order: events fire in exactly the (timestamp, insertion) order of a
// heap of single events. The plain engine and every lane share this one
// queue.
//
// Two scheduling styles coexist:
//
//   - the closure style, At/After/Ticker, convenient for one-shot and
//     rarely-fired callbacks (the engine pools its internal event records,
//     so only the caller's closure itself allocates);
//   - the handle style, Schedule on an intrusive *Event owned by the
//     component, for hot paths. A component embeds its Event, binds a
//     Handler once at construction, and thereafter reschedules the one
//     standing event in place — zero allocations per fired event.
package sim

import (
	"repro/internal/clock"
)

// Handler receives event callbacks. Hot components implement it (or bind a
// method via HandlerFunc) once and reuse one Event for their lifetime.
type Handler interface {
	// OnEvent runs at the event's timestamp with the engine clock already
	// advanced to now.
	OnEvent(now clock.Picos)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(now clock.Picos)

// OnEvent implements Handler.
func (f HandlerFunc) OnEvent(now clock.Picos) { f(now) }

// Event is an intrusive, reusable event handle. The zero value is
// unscheduled; bind a handler with Init (or at Schedule time) and the same
// handle can be scheduled, canceled, and rescheduled any number of times
// without allocating. An Event must not be copied while scheduled.
type Event struct {
	h   Handler
	at  clock.Picos
	seq uint64
	pos int // heap index + 1 for a chain head, -1 for a follower, 0 when unscheduled

	// next/prev link the event into its chain of same-instant events (see
	// queue.go); both are nil while the event is its chain's only member.
	next, prev *Event

	// Sharded-engine fields (see sharded.go); all zero on a plain engine.
	lane     *Lane       // owning lane once scheduled through one
	schedAt  clock.Picos // simulated time of the most recent (re)schedule
	xseq     uint64      // frontier sequence: fresh, or inherited from a firing local event
	crossing bool        // scheduled (or promoted) as a crossing event
}

// Init binds the handler. Calling Init on a scheduled event is a
// programming error and panics.
func (ev *Event) Init(h Handler) {
	if ev.pos != 0 {
		panic("sim: Init on a scheduled event")
	}
	ev.h = h
}

// Scheduled reports whether the event is in the queue.
func (ev *Event) Scheduled() bool { return ev.pos != 0 }

// When reports the timestamp the event is scheduled for. It is only
// meaningful while Scheduled.
func (ev *Event) When() clock.Picos { return ev.at }

// funcEvent wraps a one-shot closure for the At/After API. Fired wrappers
// return to a per-engine free list, so steady-state closure scheduling
// performs no event-record allocation.
type funcEvent struct {
	ev   Event
	eng  *Engine
	fn   func()
	next *funcEvent
}

// OnEvent implements Handler: recycle first, then run, so fn may schedule
// further closures (possibly reusing this very record).
func (fe *funcEvent) OnEvent(clock.Picos) {
	fn := fe.fn
	fe.fn = nil
	fe.next = fe.eng.freeFn
	fe.eng.freeFn = fe
	fn()
}

// tickerEvent is the standing event behind Ticker.
type tickerEvent struct {
	ev       Event
	eng      *Engine
	interval clock.Picos
	fn       func(now clock.Picos) bool
}

// OnEvent implements Handler.
func (te *tickerEvent) OnEvent(now clock.Picos) {
	if te.fn(now) {
		te.eng.Schedule(&te.ev, now+te.interval)
	}
}

// Engine is the event loop. The zero value is ready to use (as a plain
// engine; sharded engines are built with NewSharded).
type Engine struct {
	now    clock.Picos
	seq    uint64
	xseq   uint64 // frontier sequence counter (see sharded.go headBefore)
	heap   evHeap
	fired  uint64
	freeFn *funcEvent

	// laned selects the sharded engine class: the engine's own heap is
	// the host lane (lane 0) and components may claim additional lanes
	// via NewLane. See sharded.go.
	laned bool
	lanes []*Lane
}

// New returns a fresh engine with its clock at time zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() clock.Picos { return e.now }

// Fired reports how many events have run, a cheap progress/cost metric.
func (e *Engine) Fired() uint64 { return e.fired }

// pending reports the number of scheduled events not yet fired.
func (e *Engine) pending() int {
	n := e.heap.len()
	for _, l := range e.lanes {
		n += l.heap.len()
	}
	return n
}

// Schedule places ev in the queue at absolute time t, binding the event to
// this engine until it fires or is canceled. If ev is already scheduled it
// is moved in place — no allocation, no stale duplicate — and the move
// counts as a fresh insertion for same-timestamp FIFO ordering. Scheduling
// in the past (or with no handler bound) is a programming error and
// panics: silently reordering time would corrupt the DRAM timing model.
func (e *Engine) Schedule(ev *Event, t clock.Picos) {
	if ev.lane != nil {
		// The event belongs to a lane; keep it there (host code touching a
		// lane event counts as a crossing).
		ev.lane.Schedule(ev, t)
		return
	}
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	if ev.h == nil {
		panic("sim: event with no handler (missing Init)")
	}
	e.seq++
	e.xseq++
	ev.schedAt = e.now
	ev.xseq = e.xseq
	e.heap.set(ev, t, e.seq)
}

// cancel removes ev from the queue. Canceling an unscheduled event is a
// no-op.
func (e *Engine) cancel(ev *Event) {
	if ev.lane != nil {
		ev.lane.cancel(ev)
		return
	}
	e.heap.remove(ev)
}

// At schedules fn to run at absolute time t.
func (e *Engine) At(t clock.Picos, fn func()) {
	fe := e.freeFn
	if fe == nil {
		fe = &funcEvent{eng: e}
		fe.ev.Init(fe)
	} else {
		e.freeFn = fe.next
		fe.next = nil
	}
	fe.fn = fn
	e.Schedule(&fe.ev, t)
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d clock.Picos, fn func()) { e.At(e.now+d, fn) }

// Step fires the single earliest event (on a sharded engine, in the
// canonical order across lanes). It reports false when no events remain.
func (e *Engine) Step() bool {
	if e.laned {
		return e.lanedStep(clock.Never)
	}
	if e.heap.empty() {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.fired++
	ev.h.OnEvent(e.now)
	return true
}

// Run fires events until the queue drains.
//
//pimmu:keep the internal/sim and internal/dram engine benchmarks drain the queue with it
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued. The engine clock ends at the deadline.
func (e *Engine) RunUntil(deadline clock.Picos) {
	if e.laned {
		for e.lanedStep(deadline) {
		}
	} else {
		for !e.heap.empty() && e.heap.slots[0].at <= deadline {
			e.Step()
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile fires events until cond reports false or the queue drains.
// cond is checked after every event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Ticker invokes fn every interval until fn reports false. The first
// invocation happens one interval from now. Tickers are used for periodic
// observers such as bandwidth samplers and the OS scheduling quantum; the
// engine reuses one standing event per ticker, so ticking never allocates.
func (e *Engine) Ticker(interval clock.Picos, fn func(now clock.Picos) bool) {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	te := &tickerEvent{eng: e, interval: interval, fn: fn}
	te.ev.Init(te)
	e.Schedule(&te.ev, e.now+interval)
}
