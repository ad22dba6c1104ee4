package sim

import (
	"reflect"
	"testing"

	"repro/internal/clock"
)

// logEvent returns an event whose handler appends name to *log.
func logEvent(log *[]string, name string) *Event {
	ev := &Event{}
	ev.Init(HandlerFunc(func(clock.Picos) { *log = append(*log, name) }))
	return ev
}

// TestShardedCanonicalOrder pins the order the sharded engine merges its
// heaps in: timestamp, then schedule timestamp, then frontier sequence —
// never the lane index while those differ.
func TestShardedCanonicalOrder(t *testing.T) {
	eng := NewSharded()
	l1, l2 := eng.NewLane("a"), eng.NewLane("b")
	var log []string
	// Scheduled at t=0 for t=100, in this order: the frontier sequence
	// orders them across the host heap and both lanes.
	l2.Schedule(logEvent(&log, "b0"), 100)
	eng.Schedule(logEvent(&log, "host0"), 100)
	l1.Schedule(logEvent(&log, "a0"), 100)
	// Scheduled later in simulated time for the same instant: fires after
	// every event scheduled at t=0, whatever its frontier sequence.
	eng.At(50, func() { l1.Schedule(logEvent(&log, "a50"), 100) })
	eng.Schedule(logEvent(&log, "host0b"), 100)
	// Earlier timestamps still come first.
	l2.ScheduleLocal(logEvent(&log, "b-early"), 99)
	eng.Run()
	want := []string{"b-early", "b0", "host0", "a0", "host0b", "a50"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fire order %v, want %v", log, want)
	}
}

// inheritanceOrder runs the frontier-sequence inheritance scenario: a
// host event f and a lane event root both fire at t=10 (f first); f
// schedules H and root schedules C, both for t=100 from t=10. schedule
// places root on its lane; promote, when set, promotes it afterwards.
func inheritanceOrder(schedule func(l Scheduler, ev *Event, t clock.Picos), promote bool) []string {
	eng := NewSharded()
	lane := eng.NewLane("lane")
	var log []string
	eng.At(10, func() { eng.Schedule(logEvent(&log, "H"), 100) })
	root := &Event{}
	root.Init(HandlerFunc(func(clock.Picos) { lane.ScheduleLocal(logEvent(&log, "C"), 100) }))
	schedule(lane, root, 10)
	if promote {
		lane.Promote(root)
	}
	eng.Run()
	return log
}

// TestShardedXseqInheritance pins frontier-sequence inheritance: an event
// scheduled by a lane-local handler carries its root's stamp (taken
// before f's child H was stamped), so it fires before H; scheduled by a
// crossing handler it takes a fresh stamp and fires after.
func TestShardedXseqInheritance(t *testing.T) {
	local := func(l Scheduler, ev *Event, t clock.Picos) { l.ScheduleLocal(ev, t) }
	crossing := func(l Scheduler, ev *Event, t clock.Picos) { l.Schedule(ev, t) }
	if got := inheritanceOrder(local, false); !reflect.DeepEqual(got, []string{"C", "H"}) {
		t.Errorf("local root: order %v, want [C H] (inherited stamp)", got)
	}
	if got := inheritanceOrder(crossing, false); !reflect.DeepEqual(got, []string{"H", "C"}) {
		t.Errorf("crossing root: order %v, want [H C] (fresh stamp)", got)
	}
	// On the plain engine C is simply inserted after H.
	eng := New()
	var log []string
	eng.At(10, func() { eng.Schedule(logEvent(&log, "H"), 100) })
	eng.At(10, func() { eng.Schedule(logEvent(&log, "C"), 100) })
	eng.Run()
	if !reflect.DeepEqual(log, []string{"H", "C"}) {
		t.Errorf("plain engine: order %v, want [H C]", log)
	}
}

// TestShardedPromote verifies a promoted event fires as a crossing: the
// events its handler schedules take fresh frontier stamps, exactly as if
// it had been scheduled crossing from the start.
func TestShardedPromote(t *testing.T) {
	local := func(l Scheduler, ev *Event, t clock.Picos) { l.ScheduleLocal(ev, t) }
	if got := inheritanceOrder(local, true); !reflect.DeepEqual(got, []string{"H", "C"}) {
		t.Errorf("promoted root: order %v, want [H C]", got)
	}
	// Promoting an unscheduled event is a no-op.
	eng := NewSharded()
	lane := eng.NewLane("lane")
	var ev Event
	ev.Init(HandlerFunc(func(clock.Picos) {}))
	lane.Promote(&ev)
	if ev.Scheduled() || ev.crossing {
		t.Error("Promote changed an unscheduled event")
	}
}

// TestShardedFrontierSafety checks the merge never runs a lane past a
// pending host event: a host probe at a fixed time must observe exactly
// the lane events with earlier timestamps.
func TestShardedFrontierSafety(t *testing.T) {
	eng := NewSharded()
	type counterLane struct {
		ev    Event
		n     int
		sched Scheduler
	}
	lanes := make([]*counterLane, 4)
	for i := range lanes {
		l := &counterLane{sched: eng.NewLane("")}
		step := clock.Picos(10 + i) // events at 10,20,... / 11,22,...
		l.ev.Init(HandlerFunc(func(now clock.Picos) {
			l.n++
			if now < 100000 {
				l.sched.ScheduleLocal(&l.ev, now+step)
			}
		}))
		l.sched.ScheduleLocal(&l.ev, step)
		lanes[i] = l
	}
	const probeAt = 50000
	var seen []int
	eng.At(probeAt, func() {
		for _, l := range lanes {
			seen = append(seen, l.n)
		}
	})
	eng.Run()
	for i := range lanes {
		want := (probeAt - 1) / (10 + i) // events strictly before the probe
		if seen[i] != want {
			t.Errorf("lane%d: probe saw %d events, want %d", i, seen[i], want)
		}
	}
}

// TestShardedRunUntil checks deadline semantics on a sharded engine: only
// events at or before the deadline fire and the clock lands on it.
func TestShardedRunUntil(t *testing.T) {
	eng := NewSharded()
	sched := eng.NewLane("")
	fired := 0
	var ev Event
	ev.Init(HandlerFunc(func(now clock.Picos) {
		fired++
		if now < 4000 {
			sched.ScheduleLocal(&ev, now+100)
		}
	}))
	sched.ScheduleLocal(&ev, 100)
	hostFired := 0
	eng.At(5000, func() { hostFired++ })
	eng.RunUntil(1000)
	if fired != 10 {
		t.Errorf("fired %d lane events by t=1000, want 10", fired)
	}
	if hostFired != 0 {
		t.Errorf("host event at 5000 fired before deadline")
	}
	if eng.Now() != 1000 {
		t.Errorf("Now = %v, want 1000", eng.Now())
	}
	if eng.pending() != 2 {
		t.Errorf("pending = %d, want 2", eng.pending())
	}
	eng.Run()
	if hostFired != 1 {
		t.Errorf("host event did not fire after resume")
	}
}

// TestShardedCancel removes a crossing event and checks it never fires
// while the rest of the lane drains completely.
func TestShardedCancel(t *testing.T) {
	eng := NewSharded()
	sched := eng.NewLane("")
	var cross Event
	cross.Init(HandlerFunc(func(clock.Picos) { t.Error("canceled event fired") }))
	sched.Schedule(&cross, 10000)
	var local Event
	n := 0
	local.Init(HandlerFunc(func(now clock.Picos) {
		if n++; n < 20 {
			sched.ScheduleLocal(&local, now+5)
		}
	}))
	sched.ScheduleLocal(&local, 5)
	sched.(*Lane).cancel(&cross)
	if cross.Scheduled() {
		t.Fatal("event still scheduled after cancel")
	}
	eng.Run()
	if n != 20 {
		t.Errorf("local chain fired %d, want 20", n)
	}
	if eng.pending() != 0 {
		t.Errorf("pending = %d after Run", eng.pending())
	}
}

// TestSerialEngineIsAScheduler pins that a plain engine satisfies the
// Scheduler surface lanes offer, so components shard transparently.
func TestSerialEngineIsAScheduler(t *testing.T) {
	eng := New()
	s := eng.NewLane("x")
	if s != Scheduler(eng) {
		t.Fatal("NewLane on a plain engine must return the engine itself")
	}
	var ev Event
	fired := false
	ev.Init(HandlerFunc(func(clock.Picos) { fired = true }))
	s.ScheduleLocal(&ev, 10)
	s.Promote(&ev) // no-op
	eng.Run()
	if !fired {
		t.Fatal("event did not fire through the Scheduler surface")
	}
}

// TestShardStatsCounters checks the instrumentation snapshot adds up:
// per-lane fires split into crossings and local fires, and the totals
// agree with Engine.Fired.
func TestShardStatsCounters(t *testing.T) {
	eng := NewSharded()
	a, b := eng.NewLane("a"), eng.NewLane("b")
	var ev [4]Event
	for i := range ev {
		ev[i].Init(HandlerFunc(func(clock.Picos) {}))
	}
	a.Schedule(&ev[0], 10)
	a.ScheduleLocal(&ev[1], 20)
	b.ScheduleLocal(&ev[2], 30)
	eng.Schedule(&ev[3], 40)
	st := eng.ShardStats()
	if st.HostPending != 1 || len(st.Lanes) != 2 || st.Lanes[0].Pending != 2 || st.Lanes[1].Pending != 1 {
		t.Fatalf("pending snapshot %+v", st)
	}
	eng.Run()
	st = eng.ShardStats()
	want := []LaneStats{
		{Name: "a", Fired: 2, Crossings: 1},
		{Name: "b", Fired: 1},
	}
	if !reflect.DeepEqual(st.Lanes, want) {
		t.Errorf("lanes %+v, want %+v", st.Lanes, want)
	}
	if st.HostFired != 1 || st.HostPending != 0 {
		t.Errorf("host fired %d pending %d, want 1 and 0", st.HostFired, st.HostPending)
	}
	if eng.Fired() != 4 {
		t.Errorf("Fired = %d, want 4", eng.Fired())
	}
}

// TestShardStatsPlainEngine pins the plain-engine snapshot: a zero value
// with nil lanes, so callers can gate diagnostics on it.
func TestShardStatsPlainEngine(t *testing.T) {
	if st := New().ShardStats(); !reflect.DeepEqual(st, ShardStats{}) {
		t.Errorf("plain engine ShardStats = %+v, want zero", st)
	}
}
