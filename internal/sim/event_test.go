package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
)

// recorder is a Handler that logs fire times.
type recorder struct {
	fired []clock.Picos
}

func (r *recorder) OnEvent(now clock.Picos) { r.fired = append(r.fired, now) }

func TestEventScheduleAndFire(t *testing.T) {
	e := New()
	r := &recorder{}
	var ev Event
	ev.Init(r)
	if ev.Scheduled() {
		t.Fatal("zero-value event reports scheduled")
	}
	e.Schedule(&ev, 100)
	if !ev.Scheduled() || ev.When() != 100 {
		t.Fatalf("Scheduled=%v When=%d, want true/100", ev.Scheduled(), ev.When())
	}
	e.Run()
	if len(r.fired) != 1 || r.fired[0] != 100 {
		t.Errorf("fired = %v, want [100]", r.fired)
	}
	if ev.Scheduled() {
		t.Error("event still scheduled after firing")
	}
}

func TestEventRescheduleMovesInPlace(t *testing.T) {
	e := New()
	r := &recorder{}
	var ev Event
	ev.Init(r)
	e.Schedule(&ev, 500)
	e.Schedule(&ev, 200) // earlier
	if e.pending() != 1 {
		t.Fatalf("pending = %d after reschedule, want 1 (no stale duplicate)", e.pending())
	}
	e.Schedule(&ev, 300) // later again
	e.Run()
	if len(r.fired) != 1 || r.fired[0] != 300 {
		t.Errorf("fired = %v, want [300]", r.fired)
	}
}

func TestEventCancel(t *testing.T) {
	e := New()
	r := &recorder{}
	var ev Event
	ev.Init(r)
	e.Schedule(&ev, 100)
	e.cancel(&ev)
	e.cancel(&ev) // double-cancel is a no-op
	if ev.Scheduled() || e.pending() != 0 {
		t.Fatal("cancel did not remove the event")
	}
	e.Run()
	if len(r.fired) != 0 {
		t.Errorf("canceled event fired: %v", r.fired)
	}
	// The handle is reusable after cancel.
	e.Schedule(&ev, 400)
	e.Run()
	if len(r.fired) != 1 || r.fired[0] != 400 {
		t.Errorf("fired = %v, want [400]", r.fired)
	}
}

func TestEventRescheduleIsFreshInsertionForFIFO(t *testing.T) {
	// An event rescheduled onto a timestamp fires after closures already
	// queued at that timestamp, exactly as if it had been newly inserted.
	e := New()
	var order []int
	var ev Event
	ev.Init(HandlerFunc(func(clock.Picos) { order = append(order, 99) }))
	e.Schedule(&ev, 50)
	e.At(100, func() { order = append(order, 1) })
	e.Schedule(&ev, 100) // moved after closure 1 was queued
	e.At(100, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 99 || order[2] != 2 {
		t.Errorf("order = %v, want [1 99 2]", order)
	}
}

func TestEventSelfRescheduleFromHandler(t *testing.T) {
	e := New()
	var ev Event
	count := 0
	ev.Init(HandlerFunc(func(now clock.Picos) {
		count++
		if count < 5 {
			e.Schedule(&ev, now+10)
		}
	}))
	e.Schedule(&ev, 10)
	e.Run()
	if count != 5 || e.Now() != 50 {
		t.Errorf("count=%d Now=%d, want 5/50", count, e.Now())
	}
}

func TestEventInterleavesDeterministicallyWithClosures(t *testing.T) {
	// Mixed handle/closure workload fires in (time, insertion) order.
	e := New()
	var order []string
	mk := func(tag string) *Event {
		ev := &Event{}
		ev.Init(HandlerFunc(func(clock.Picos) { order = append(order, tag) }))
		return ev
	}
	a, b := mk("a"), mk("b")
	e.At(10, func() { order = append(order, "x") })
	e.Schedule(a, 10)
	e.At(10, func() { order = append(order, "y") })
	e.Schedule(b, 10)
	e.Run()
	want := []string{"x", "a", "y", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleWithoutHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule without Init did not panic")
		}
	}()
	New().Schedule(&Event{}, 10)
}

func TestInitWhileScheduledPanics(t *testing.T) {
	e := New()
	var ev Event
	ev.Init(HandlerFunc(func(clock.Picos) {}))
	e.Schedule(&ev, 10)
	defer func() {
		if recover() == nil {
			t.Error("Init on scheduled event did not panic")
		}
	}()
	ev.Init(HandlerFunc(func(clock.Picos) {}))
}

func TestEventSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		var ev Event
		ev.Init(HandlerFunc(func(clock.Picos) {}))
		defer func() {
			if recover() == nil {
				t.Error("Schedule(past) did not panic")
			}
		}()
		e.Schedule(&ev, 50)
	})
	e.Run()
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	e := New()
	var order []int
	evs := make([]*Event, 10)
	for i := range evs {
		i := i
		evs[i] = &Event{}
		evs[i].Init(HandlerFunc(func(clock.Picos) { order = append(order, i) }))
		e.Schedule(evs[i], clock.Picos(10*(i+1)))
	}
	e.cancel(evs[3])
	e.cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestClosurePoolReuse(t *testing.T) {
	// After a closure fires, a subsequent At must not grow the pool
	// unboundedly; this exercises the free-list path including scheduling
	// from inside a firing closure.
	e := New()
	total := 0
	var chain func()
	chain = func() {
		total++
		if total < 1000 {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if total != 1000 {
		t.Fatalf("chained closures fired %d times, want 1000", total)
	}
}

// checkQueue verifies the queue's structure: every slot's inline key
// matches its head and the heap orders the slots; every chain member
// shares its head's instant with seq rising from the head, has pos -1 and
// consistent ring links; chains of one instant never interleave in seq;
// and the event count includes every follower. It returns the scheduled
// events and the number of instants held by more than one chain.
func checkQueue(t *testing.T, h *evHeap) (map[*Event]bool, int) {
	t.Helper()
	queued := map[*Event]bool{}
	type span struct{ lo, hi uint64 }
	chains := map[clock.Picos][]span{}
	for i := range h.slots {
		s := &h.slots[i]
		hd := s.ev
		if hd.pos != i+1 || s.at != hd.at || s.seq != hd.seq {
			t.Fatalf("slot %d: pos %d, key (%d,%d), head key (%d,%d)",
				i, hd.pos, s.at, s.seq, hd.at, hd.seq)
		}
		if i > 0 && s.before(&h.slots[(i-1)/2]) {
			t.Fatalf("slot %d is earlier than its parent", i)
		}
		if (hd.next == nil) != (hd.prev == nil) {
			t.Fatalf("slot %d: head half-linked", i)
		}
		queued[hd] = true
		last := hd.seq
		if hd.next != nil {
			for ev := hd.next; ev != hd; ev = ev.next {
				if queued[ev] {
					t.Fatalf("slot %d: event in two places", i)
				}
				queued[ev] = true
				if ev.pos != -1 || ev.at != hd.at || ev.seq <= last || ev.next.prev != ev {
					t.Fatalf("slot %d: follower pos %d key (%d,%d) after seq %d, links ok %v",
						i, ev.pos, ev.at, ev.seq, last, ev.next.prev == ev)
				}
				last = ev.seq
			}
			if hd.next.prev != hd {
				t.Fatalf("slot %d: broken ring at head", i)
			}
		}
		chains[hd.at] = append(chains[hd.at], span{hd.seq, last})
	}
	split := 0
	for at, cs := range chains {
		if len(cs) > 1 {
			split++
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		for i := 1; i < len(cs); i++ {
			if cs[i-1].hi >= cs[i].lo {
				t.Fatalf("instant %d: chains [%d,%d] and [%d,%d] interleave",
					at, cs[i-1].lo, cs[i-1].hi, cs[i].lo, cs[i].hi)
			}
		}
	}
	if len(queued) != h.len() {
		t.Fatalf("queue holds %d events, counts %d", len(queued), h.len())
	}
	return queued, split
}

// TestHeapRandomOpsFireInKeyOrder drives one engine through random
// schedules, in-place reschedules and cancels of a pool of standing
// events, half of the schedules onto an instant some event already
// occupies, checking the queue's structure after every operation. It
// then drains the queue while handlers keep scheduling and canceling,
// and requires every fire to be the earliest pending event of a
// reference model in (time, insertion) order.
func TestHeapRandomOpsFireInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	type key struct {
		at  clock.Picos
		seq uint64
	}
	model := map[*Event]key{}
	evs := make([]Event, 64)
	// randomOp schedules or cancels a random pool event. A schedule goes,
	// half the time, to an instant already in use.
	randomOp := func() {
		ev := &evs[rng.Intn(len(evs))]
		if rng.Intn(4) == 0 {
			e.cancel(ev)
			delete(model, ev)
			return
		}
		at := e.Now() + clock.Picos(rng.Intn(200))
		if rng.Intn(2) == 0 && len(model) > 0 {
			other := &evs[rng.Intn(len(evs))]
			if k, ok := model[other]; ok {
				at = k.at
			}
		}
		e.Schedule(ev, at)
		model[ev] = key{ev.at, ev.seq}
	}
	followers, split := 0, 0
	check := func() {
		t.Helper()
		queued, n := checkQueue(t, &e.heap)
		followers += len(queued) - len(e.heap.slots)
		split += n
		if len(queued) != len(model) || e.pending() != len(model) {
			t.Fatalf("queue holds %d events, pending %d, model %d", len(queued), e.pending(), len(model))
		}
		for ev, k := range model {
			if !queued[ev] || ev.at != k.at || ev.seq != k.seq {
				t.Fatalf("event key (%d,%d) queued %v, model (%d,%d)", ev.at, ev.seq, queued[ev], k.at, k.seq)
			}
		}
	}
	fired, handlerOps := 0, 0
	for i := range evs {
		ev := &evs[i]
		ev.Init(HandlerFunc(func(now clock.Picos) {
			want, ok := model[ev]
			for _, k := range model {
				if k.at < want.at || k.at == want.at && k.seq < want.seq {
					t.Fatalf("fired (%d,%d) before pending (%d,%d)", want.at, want.seq, k.at, k.seq)
				}
			}
			if !ok || now != want.at {
				t.Fatalf("fired at %d, model has %v (%d)", now, ok, want.at)
			}
			delete(model, ev)
			fired++
			for n := 2 + rng.Intn(2); n > 0 && handlerOps < 20000; n-- {
				randomOp()
				handlerOps++
			}
		}))
	}
	for op := 0; op < 20000; op++ {
		randomOp()
		check()
	}
	for e.Step() {
		check()
	}
	if len(model) != 0 || handlerOps < 20000 {
		t.Fatalf("drained with %d events unfired after %d handler ops", len(model), handlerOps)
	}
	// The run must have exercised chaining and sealed chains.
	if followers == 0 || split == 0 {
		t.Fatalf("%d followers and %d split instants seen", followers, split)
	}
	t.Logf("%d events fired; %d followers and %d split instants seen", fired, followers, split)
}

// TestPendingCountsChainedEvents requires pending and ShardStats to count
// every event of a shared instant, not just the one holding its heap slot.
func TestPendingCountsChainedEvents(t *testing.T) {
	noop := HandlerFunc(func(clock.Picos) {})
	e := New()
	for i := 0; i < 5; i++ {
		ev := &Event{}
		ev.Init(noop)
		e.Schedule(ev, 100)
	}
	e.At(200, func() {})
	if e.pending() != 6 {
		t.Errorf("pending = %d, want 6", e.pending())
	}
	e.Step()
	if e.pending() != 5 {
		t.Errorf("pending after one fire = %d, want 5", e.pending())
	}

	sh := NewSharded()
	lane := sh.NewLane("l")
	for i := 0; i < 3; i++ {
		sh.At(50, func() {})
		ev := &Event{}
		ev.Init(noop)
		lane.ScheduleLocal(ev, 50)
	}
	st := sh.ShardStats()
	if st.HostPending != 3 || st.Lanes[0].Pending != 3 || sh.pending() != 6 {
		t.Errorf("HostPending %d, lane Pending %d, pending %d; want 3, 3, 6",
			st.HostPending, st.Lanes[0].Pending, sh.pending())
	}
}
