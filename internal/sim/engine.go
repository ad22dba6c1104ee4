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
// Two scheduling styles coexist:
//
//   - the closure style, At/After/Ticker, convenient for one-shot and
//     rarely-fired callbacks (the engine pools its internal event records,
//     so only the caller's closure itself allocates);
//   - the handle style, Schedule/Cancel on an intrusive *Event owned by the
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
	pos int // heap index + 1; 0 when unscheduled

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

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for _, l := range e.lanes {
		n += len(l.heap)
	}
	return n
}

// Next reports the timestamp of the earliest pending event, or clock.Never
// when the queue is empty.
func (e *Engine) Next() clock.Picos {
	t := clock.Never
	if len(e.heap) > 0 {
		t = e.heap[0].at
	}
	for _, l := range e.lanes {
		if len(l.heap) > 0 && l.heap[0].at < t {
			t = l.heap[0].at
		}
	}
	return t
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

// ScheduleAfter places ev d picoseconds from now.
func (e *Engine) ScheduleAfter(ev *Event, d clock.Picos) { e.Schedule(ev, e.now+d) }

// Cancel removes ev from the queue. Canceling an unscheduled event is a
// no-op, so components may cancel defensively.
func (e *Engine) Cancel(ev *Event) {
	if ev.lane != nil {
		ev.lane.Cancel(ev)
		return
	}
	e.heap.remove(ev)
}

// heapSlot is one entry of an event heap: the event's (at, seq) key
// inline beside the event, so sift comparisons never dereference an
// event. The key mirrors Event.at/seq, which When and the sharded
// engine's cross-heap order read.
type heapSlot struct {
	at  clock.Picos
	seq uint64
	ev  *Event
}

// before orders a heap: earliest timestamp first, FIFO among equals.
// Within one heap (the host's or one lane's) seq is assigned serially, so
// this is exactly the serial engine's firing order.
func (a *heapSlot) before(b *heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evHeap is an indexed binary min-heap of scheduled events, shared by the
// plain engine and every lane: each event's pos is its slot index + 1.
type evHeap []heapSlot

// head returns the earliest event; the heap must not be empty.
func (h evHeap) head() *Event { return h[0].ev }

// set (re)schedules ev under the key (at, seq): a fresh event is
// appended, a scheduled one is moved in place.
func (h *evHeap) set(ev *Event, at clock.Picos, seq uint64) {
	ev.at, ev.seq = at, seq
	s := heapSlot{at: at, seq: seq, ev: ev}
	if ev.pos == 0 {
		*h = append(*h, s)
		h.up(len(*h)-1, s)
		return
	}
	// In place: a fresh seq means the event can only sink relative to
	// equal-timestamp peers, but an earlier t can still float it up.
	h.fix(ev.pos-1, s)
}

// fix stores s in the hole at i, moving it whichever way restores order.
func (h evHeap) fix(i int, s heapSlot) {
	if i > 0 && s.before(&h[(i-1)/2]) {
		h.up(i, s)
	} else {
		h.down(i, s)
	}
}

// up moves s from the hole at i toward the root until its parent is
// earlier, and stores it.
func (h evHeap) up(i int, s heapSlot) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].ev.pos = i + 1
		i = parent
	}
	h[i] = s
	s.ev.pos = i + 1
}

// down moves s from the hole at i toward the leaves until no child is
// earlier, and stores it.
func (h evHeap) down(i int, s heapSlot) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].before(&h[child]) {
			child = right
		}
		if !h[child].before(&s) {
			break
		}
		h[i] = h[child]
		h[i].ev.pos = i + 1
		i = child
	}
	h[i] = s
	s.ev.pos = i + 1
}

// remove takes a scheduled event out of the heap; an unscheduled event is
// a no-op.
func (h *evHeap) remove(ev *Event) {
	if ev.pos == 0 {
		return
	}
	i := ev.pos - 1
	ev.pos = 0
	if last := h.shrink(); i < len(*h) {
		h.fix(i, last)
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *evHeap) pop() *Event {
	ev := (*h)[0].ev
	ev.pos = 0
	if last := h.shrink(); len(*h) > 0 {
		h.down(0, last)
	}
	return ev
}

// shrink drops the heap's last slot and returns it.
func (h *evHeap) shrink() heapSlot {
	n := len(*h) - 1
	last := (*h)[n]
	(*h)[n].ev = nil // the slot is unused; drop its event reference
	*h = (*h)[:n]
	return last
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
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.fired++
	ev.h.OnEvent(e.now)
	return true
}

// Run fires events until the queue drains.
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
		for len(e.heap) > 0 && e.heap[0].at <= deadline {
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
