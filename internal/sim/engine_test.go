package sim

import (
	"testing"

	"repro/internal/clock"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("fire order = %v, want [1 2 3]", order)
	}
	if e.Now() != 300 {
		t.Errorf("Now() = %d, want 300", e.Now())
	}
}

func TestEqualTimestampsFireFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 10 {
			e.After(10, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if count != 10 {
		t.Errorf("chained events fired %d times, want 10", count)
	}
	if e.Now() != 90 {
		t.Errorf("Now() = %d, want 90", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := New()
	fired := []clock.Picos{}
	for _, at := range []clock.Picos{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if e.pending() != 2 {
		t.Errorf("pending() = %d, want 2", e.pending())
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %d, want clock advanced to deadline 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %d events, want 4", len(fired))
	}
}

func TestRunWhileStopsOnCondition(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 100; i++ {
		e.At(clock.Picos(i), func() { count++ })
	}
	e.RunWhile(func() bool { return count < 7 })
	if count != 7 {
		t.Errorf("RunWhile stopped at count=%d, want 7", count)
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []clock.Picos
	e.Ticker(100, func(now clock.Picos) bool {
		ticks = append(ticks, now)
		return len(ticks) < 5
	})
	e.Run()
	want := []clock.Picos{100, 200, 300, 400, 500}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("ticks[%d] = %d, want %d", i, ticks[i], want[i])
		}
	}
}

func TestTickerPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ticker(0) did not panic")
		}
	}()
	New().Ticker(0, func(clock.Picos) bool { return false })
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 42; i++ {
		e.At(clock.Picos(i), func() {})
	}
	e.Run()
	if e.Fired() != 42 {
		t.Errorf("Fired() = %d, want 42", e.Fired())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step() on empty queue reported true")
	}
}
