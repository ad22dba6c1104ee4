package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// total sums every bucket of s.
func total(s *Series) float64 {
	var t float64
	for i := 0; i < s.Len(); i++ {
		t += s.Bucket(i)
	}
	return t
}

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(100)
	s.Add(0, 1)
	s.Add(99, 2)
	s.Add(100, 4)
	s.Add(350, 8)
	if got := s.Bucket(0); got != 3 {
		t.Errorf("bucket 0 = %v, want 3", got)
	}
	if got := s.Bucket(1); got != 4 {
		t.Errorf("bucket 1 = %v, want 4", got)
	}
	if got := s.Bucket(3); got != 8 {
		t.Errorf("bucket 3 = %v, want 8", got)
	}
	if got := s.Bucket(2); got != 0 {
		t.Errorf("untouched bucket = %v, want 0", got)
	}
	if got := s.Bucket(-1); got != 0 {
		t.Errorf("negative index = %v, want 0", got)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if got := total(s); got != 15 {
		t.Errorf("bucket sum = %v, want 15", got)
	}

	// A series first touched at window k > 0 (a channel served late in
	// a coarse-grained copy) reads 0 below k and still has Len k+1.
	late := NewSeries(100)
	late.Add(520, 6)
	for i := 0; i < 5; i++ {
		if got := late.Bucket(i); got != 0 {
			t.Errorf("late series bucket %d = %v, want 0", i, got)
		}
	}
	if got := late.Bucket(5); got != 6 {
		t.Errorf("late series bucket 5 = %v, want 6", got)
	}
	if late.Len() != 6 {
		t.Errorf("late series Len = %d, want 6", late.Len())
	}
}

func TestSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSeries(0) did not panic")
		}
	}()
	NewSeries(0)
}

func TestSeriesNegativeTimePanics(t *testing.T) {
	s := NewSeries(10)
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	s.Add(-1, 1)
}

// Property: total equals the sum of added values regardless of bucketing.
func TestSeriesTotalProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewSeries(37)
		var want float64
		for i, v := range raw {
			s.Add(clock.Picos(i*13), float64(v))
			want += float64(v)
		}
		return math.Abs(total(s)-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{4, 1, 9}
	if Mean(xs) != 14.0/3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 9 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice aggregates not 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.Rowf("alpha\t%d", 1)
	tab.Rowf("beta\t%d", 22)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[3], "beta") || !strings.Contains(lines[3], "22") {
		t.Errorf("Rowf row wrong: %q", lines[3])
	}
	// Columns align: "value" column starts at the same offset in all rows.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1") {
		t.Errorf("column misaligned:\n%s", out)
	}
}
