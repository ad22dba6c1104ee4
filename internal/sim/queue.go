package sim

import (
	"repro/internal/clock"
)

// The event queue. Every DDR4 channel of a machine ticks on the same
// command-clock edges, so most pending events share their timestamp with
// several others. The queue gives the events of one instant a single heap
// slot: a chain, an intrusive ring of events in seq order whose head
// alone sits in the heap.
//
// A schedule at t appends to the newest chain of t in O(1); a small
// direct-mapped table (tails), keyed on t, remembers that chain's last
// event. An entry is checked on use, not cleared: it is stale once its
// event fired, moved or was canceled, and a lookup that finds no live
// chain starts a new one. Once a newer chain of an instant starts, the
// older one is sealed and never grows again, so each member of an older
// chain precedes each member of a newer one in seq.
//
// Chains change no firing order. All members of a chain share at, and
// seq rises from the head, so the heap key (at, head seq) orders chains
// exactly as (at, seq) orders events. A popped or removed head hands its
// slot to its first follower without a sift: the follower's key still
// precedes the key of every other slot.

// tailBits sizes the tails table: 1<<tailBits entries, well above the
// number of distinct instants a busy machine keeps pending.
const tailBits = 6

// heapSlot is one entry of the heap: the chain head's (at, seq) key
// inline beside the head, so sift comparisons never dereference an
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

// tailEntry remembers the last event of the newest chain of instant at.
type tailEntry struct {
	at clock.Picos
	ev *Event
}

// evHeap is the event queue shared by the plain engine and every lane:
// an indexed binary min-heap of chain heads, each head's pos its slot
// index + 1, plus the chains' tails table. A chain follower's pos is -1.
type evHeap struct {
	slots     []heapSlot
	followers int // scheduled events outside the heap
	tails     [1 << tailBits]tailEntry
}

// tailIndex hashes an instant to its tails entry (Fibonacci hashing).
func tailIndex(at clock.Picos) uint64 {
	return uint64(at) * 0x9e3779b97f4a7c15 >> (64 - tailBits)
}

// len reports the number of scheduled events.
func (h *evHeap) len() int { return len(h.slots) + h.followers }

// empty reports whether no event is scheduled.
func (h *evHeap) empty() bool { return len(h.slots) == 0 }

// head returns the earliest event; the heap must not be empty.
func (h *evHeap) head() *Event { return h.slots[0].ev }

// set (re)schedules ev under the key (at, seq), where seq exceeds every
// seq in the queue: a fresh insertion at the end of instant at.
func (h *evHeap) set(ev *Event, at clock.Picos, seq uint64) {
	te := &h.tails[tailIndex(at)]
	if tail := te.ev; te.at == at && tail != nil && tail.pos != 0 && tail.at == at {
		h.append(ev, tail, seq)
		return
	}
	// No live chain of at: ev starts one.
	te.at, te.ev = at, ev
	if ev.pos != 0 {
		h.move(ev, at, seq)
		return
	}
	ev.at, ev.seq = at, seq
	s := heapSlot{at: at, seq: seq, ev: ev}
	h.slots = append(h.slots, s)
	h.up(len(h.slots)-1, s)
}

// move reschedules the queued event ev as a new chain of its own.
func (h *evHeap) move(ev *Event, at clock.Picos, seq uint64) {
	s := heapSlot{at: at, seq: seq, ev: ev}
	if ev.pos > 0 && ev.next == nil {
		// A lone head: re-key its slot in place.
		ev.at, ev.seq = at, seq
		h.fix(ev.pos-1, s)
		return
	}
	h.remove(ev)
	ev.at, ev.seq = at, seq
	h.slots = append(h.slots, s)
	h.up(len(h.slots)-1, s)
}

// append places ev, with key (tail.at, seq), after tail, the last event
// of the newest chain of its instant.
func (h *evHeap) append(ev, tail *Event, seq uint64) {
	if tail == ev {
		// Already the last event of its instant: the fresh seq keeps its
		// place.
		ev.seq = seq
		if ev.pos > 0 {
			h.slots[ev.pos-1].seq = seq
		}
		return
	}
	h.remove(ev)
	ev.at, ev.seq = tail.at, seq
	ev.pos = -1
	h.followers++
	h.tails[tailIndex(ev.at)].ev = ev
	if tail.next == nil { // tail is a lone head
		tail.next, tail.prev = ev, ev
		ev.next, ev.prev = tail, tail
		return
	}
	head := tail.next
	ev.next, ev.prev = head, tail
	head.prev, tail.next = ev, ev
}

// unlink takes ev out of its chain of two or more events.
func unlink(ev *Event) {
	next, prev := ev.next, ev.prev
	if next == prev {
		next.next, next.prev = nil, nil
	} else {
		prev.next, next.prev = next, prev
	}
	ev.next, ev.prev = nil, nil
}

// fix stores s in the hole at i, moving it whichever way restores order.
func (h *evHeap) fix(i int, s heapSlot) {
	if i > 0 && s.before(&h.slots[(i-1)/2]) {
		h.up(i, s)
	} else {
		h.down(i, s)
	}
}

// up moves s from the hole at i toward the root until its parent is
// earlier, and stores it.
func (h *evHeap) up(i int, s heapSlot) {
	sl := h.slots
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(&sl[parent]) {
			break
		}
		sl[i] = sl[parent]
		sl[i].ev.pos = i + 1
		i = parent
	}
	sl[i] = s
	s.ev.pos = i + 1
}

// down moves s from the hole at i toward the leaves until no child is
// earlier, and stores it.
func (h *evHeap) down(i int, s heapSlot) {
	sl := h.slots
	n := len(sl)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && sl[right].before(&sl[child]) {
			child = right
		}
		if !sl[child].before(&s) {
			break
		}
		sl[i] = sl[child]
		sl[i].ev.pos = i + 1
		i = child
	}
	sl[i] = s
	s.ev.pos = i + 1
}

// remove takes a scheduled event out of the queue; an unscheduled event
// is a no-op.
func (h *evHeap) remove(ev *Event) {
	switch {
	case ev.pos > 0 && ev.next == nil:
		i := ev.pos - 1
		if last := h.shrink(); i < len(h.slots) {
			h.fix(i, last)
		}
	case ev.pos == 0:
		return
	case ev.pos < 0:
		unlink(ev)
		h.followers--
	default:
		h.promote(ev)
	}
	ev.pos = 0
}

// promote hands head ev's slot to its first follower.
func (h *evHeap) promote(ev *Event) {
	next := ev.next
	unlink(ev)
	s := &h.slots[ev.pos-1]
	s.seq, s.ev = next.seq, next
	next.pos = ev.pos
	h.followers--
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *evHeap) pop() *Event {
	ev := h.slots[0].ev
	if ev.next != nil {
		h.promote(ev)
	} else if last := h.shrink(); len(h.slots) > 0 {
		h.down(0, last)
	}
	ev.pos = 0
	return ev
}

// shrink drops the heap's last slot and returns it.
func (h *evHeap) shrink() heapSlot {
	n := len(h.slots) - 1
	last := h.slots[n]
	h.slots[n].ev = nil // the slot is unused; drop its event reference
	h.slots = h.slots[:n]
	return last
}
