package clock

import (
	"testing"
	"testing/quick"
)

func TestDomainPeriod(t *testing.T) {
	cases := []struct {
		freq   Hz
		period Picos
	}{
		{1 * GHz, 1000},
		{2 * GHz, 500},
		{3200 * MHz, 312}, // 3.2 GHz CPU: 312.5 ps truncated
		{1200 * MHz, 833}, // DDR4-2400 command clock
		{350 * MHz, 2857}, // UPMEM DPU
	}
	for _, c := range cases {
		d := NewDomain(c.freq)
		if d.period != c.period {
			t.Errorf("NewDomain(%v).period = %d, want %d", c.freq, d.period, c.period)
		}
	}
}

func TestDomainCycleConversions(t *testing.T) {
	d := NewDomain(1 * GHz) // 1000 ps period
	if got := d.Cycles(2500); got != 2 {
		t.Errorf("Cycles(2500) = %d, want 2", got)
	}
	if got := d.CyclesCeil(2500); got != 3 {
		t.Errorf("CyclesCeil(2500) = %d, want 3", got)
	}
	if got := d.CyclesCeil(3000); got != 3 {
		t.Errorf("CyclesCeil(3000) = %d, want 3", got)
	}
	if got := d.Duration(7); got != 7000 {
		t.Errorf("Duration(7) = %d, want 7000", got)
	}
	if got := d.Cycles(-5); got != 0 {
		t.Errorf("Cycles(-5) = %d, want 0", got)
	}
	if got := d.CyclesCeil(0); got != 0 {
		t.Errorf("CyclesCeil(0) = %d, want 0", got)
	}
}

func TestDomainAlign(t *testing.T) {
	d := NewDomain(1200 * MHz) // 833 ps
	if got := d.Align(0); got != 0 {
		t.Errorf("Align(0) = %d, want 0", got)
	}
	if got := d.Align(1); got != 833 {
		t.Errorf("Align(1) = %d, want 833", got)
	}
	if got := d.Align(833); got != 833 {
		t.Errorf("Align(833) = %d, want 833", got)
	}
	if got := d.Align(834); got != 1666 {
		t.Errorf("Align(834) = %d, want 1666", got)
	}
}

// Property: Duration(Cycles(t)) <= t for any non-negative t (truncation
// never moves time forward), and Duration(CyclesCeil(t)) >= t.
func TestCycleRoundingProperties(t *testing.T) {
	d := NewDomain(3200 * MHz)
	f := func(raw int64) bool {
		tp := Picos(raw % (int64(Second) * 10))
		if tp < 0 {
			tp = -tp
		}
		down := d.Duration(d.Cycles(tp))
		up := d.Duration(d.CyclesCeil(tp))
		return down <= tp && up >= tp && up-down <= d.period
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewDomainPanicsOnZeroFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDomain(0) did not panic")
		}
	}()
	NewDomain(0)
}

func TestPicosString(t *testing.T) {
	cases := []struct {
		p    Picos
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1.000s"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Picos(%d).String() = %q, want %q", int64(c.p), got, c.want)
		}
	}
}

func TestUnitRelations(t *testing.T) {
	if Nanosecond != 1000 || Microsecond != 1000*Nanosecond ||
		Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Error("time unit constants are inconsistent")
	}
}

func TestSecondsReporting(t *testing.T) {
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Errorf("Seconds() = %v, want 0.002", got)
	}
	if got := (5 * Nanosecond).Nanoseconds(); got != 5 {
		t.Errorf("Nanoseconds() = %v, want 5", got)
	}
}
