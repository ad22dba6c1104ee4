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
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after reschedule, want 1 (no stale duplicate)", e.Pending())
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
	e.Cancel(&ev)
	e.Cancel(&ev) // double-cancel is a no-op
	if ev.Scheduled() || e.Pending() != 0 {
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

func TestNextReportsEarliest(t *testing.T) {
	e := New()
	if e.Next() != clock.Never {
		t.Errorf("Next() on empty engine = %d, want Never", e.Next())
	}
	e.At(70, func() {})
	e.At(30, func() {})
	if e.Next() != 30 {
		t.Errorf("Next() = %d, want 30", e.Next())
	}
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
	e.Cancel(evs[3])
	e.Cancel(evs[7])
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

// TestHeapRandomOpsFireInKeyOrder drives one engine through random
// schedules, in-place reschedules and cancels of a pool of standing
// events, checking after every operation that each slot's inline key
// matches its event and each event's pos names its slot, then requires
// the survivors to fire in (time, insertion) order.
func TestHeapRandomOpsFireInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	var fired []clock.Picos
	evs := make([]Event, 64)
	for i := range evs {
		evs[i].Init(HandlerFunc(func(now clock.Picos) { fired = append(fired, now) }))
	}
	check := func() {
		t.Helper()
		for i, s := range e.heap {
			if s.ev.pos != i+1 || s.at != s.ev.at || s.seq != s.ev.seq {
				t.Fatalf("slot %d: pos %d, key (%d,%d), event key (%d,%d)",
					i, s.ev.pos, s.at, s.seq, s.ev.at, s.ev.seq)
			}
			if i > 0 && s.before(&e.heap[(i-1)/2]) {
				t.Fatalf("slot %d is earlier than its parent", i)
			}
		}
	}
	for op := 0; op < 20000; op++ {
		ev := &evs[rng.Intn(len(evs))]
		if rng.Intn(4) == 0 {
			e.Cancel(ev)
		} else {
			e.Schedule(ev, clock.Picos(rng.Intn(50)))
		}
		check()
	}
	type key struct {
		at  clock.Picos
		seq uint64
	}
	var want []key
	for _, s := range e.heap {
		want = append(want, key{s.at, s.seq})
	}
	sort.Slice(want, func(i, j int) bool {
		return want[i].at < want[j].at || want[i].at == want[j].at && want[i].seq < want[j].seq
	})
	for e.Step() {
		check()
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i].at {
			t.Fatalf("event %d fired at %d, want %d", i, fired[i], want[i].at)
		}
	}
}
