package sim

import (
	"testing"

	"repro/internal/clock"
)

// BenchmarkEngineReschedule measures the hot-component pattern: one
// standing event rescheduled in place and fired, as a DRAM channel does
// every command cycle. This path must not allocate.
func BenchmarkEngineReschedule(b *testing.B) {
	e := New()
	var ev Event
	ev.Init(HandlerFunc(func(clock.Picos) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(&ev, e.Now()+1)
		e.Step()
	}
}

// BenchmarkEngineSelfReschedule measures an event that reschedules itself
// from its own handler (the ticker/channel-tick shape) with the engine
// driving.
func BenchmarkEngineSelfReschedule(b *testing.B) {
	e := New()
	var ev Event
	n := 0
	ev.Init(HandlerFunc(func(now clock.Picos) {
		n++
		if n < b.N {
			e.Schedule(&ev, now+1)
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(&ev, 1)
	e.Run()
}

// BenchmarkEngineContendedReschedule measures rescheduling with a
// realistically full queue (64 other standing events pending), so the
// sift cost is representative of a busy simulation.
func BenchmarkEngineContendedReschedule(b *testing.B) {
	e := New()
	noop := HandlerFunc(func(clock.Picos) {})
	for i := 0; i < 64; i++ {
		ev := &Event{}
		ev.Init(noop)
		e.Schedule(ev, clock.Picos(1<<40)+clock.Picos(i))
	}
	var ev Event
	ev.Init(noop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(&ev, e.Now()+1)
		e.Step()
	}
}

// BenchmarkEngineCancelReschedule measures the cancel+reschedule cycle
// (a component aborting one deadline for another).
func BenchmarkEngineCancelReschedule(b *testing.B) {
	e := New()
	var ev Event
	ev.Init(HandlerFunc(func(clock.Picos) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(&ev, e.Now()+100)
		e.cancel(&ev)
	}
}

// BenchmarkEngineClosure measures the legacy closure path (one At + fire
// per iteration). The engine's event record is pooled; the remaining
// allocation is the caller's closure.
func BenchmarkEngineClosure(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, func() {})
		e.Step()
	}
}

// BenchmarkEngineTicker measures the per-tick cost of a standing ticker.
func BenchmarkEngineTicker(b *testing.B) {
	e := New()
	n := 0
	e.Ticker(1, func(clock.Picos) bool {
		n++
		return n < b.N
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineMixedLoad measures schedule/fire throughput with 256
// standing events rescheduling themselves at staggered offsets — the
// aggregate shape of a multi-channel simulation.
func BenchmarkEngineMixedLoad(b *testing.B) {
	e := New()
	fired := 0
	const k = 256
	evs := make([]Event, k)
	for i := range evs {
		i := i
		evs[i].Init(HandlerFunc(func(now clock.Picos) {
			fired++
			if fired+k <= b.N {
				e.Schedule(&evs[i], now+clock.Picos(1+i%7))
			}
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range evs {
		e.Schedule(&evs[i], clock.Picos(1+i))
	}
	e.Run()
}

// BenchmarkEngineSameInstant measures the shared-edge shape of a
// multi-channel DDR4 machine, where every channel ticks on the same
// 833 ps command-clock edge: 12 standing events re-armed each edge, all
// on one instant, and every third tick issuing a data-burst completion
// that lands four edges later on an edge the ticks share. One op is one
// fired event. This path must not allocate.
func BenchmarkEngineSameInstant(b *testing.B) {
	const edge = 833
	e := New()
	fired := 0
	ticks := make([]Event, 12)
	comps := make([]Event, 64)
	next := 0
	for i := range comps {
		comps[i].Init(HandlerFunc(func(clock.Picos) { fired++ }))
	}
	for i := range ticks {
		i := i
		ticks[i].Init(HandlerFunc(func(now clock.Picos) {
			fired++
			if fired >= b.N {
				return
			}
			e.Schedule(&ticks[i], now+edge)
			if i%3 == 0 {
				if c := &comps[next]; !c.Scheduled() {
					e.Schedule(c, now+4*edge)
				}
				next = (next + 1) % len(comps)
			}
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range ticks {
		e.Schedule(&ticks[i], edge)
	}
	e.Run()
}
