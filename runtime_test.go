package pimmmu_test

import (
	"bytes"
	"math"
	"testing"

	pimmmu "repro"
)

func TestXferBuilderRoundTrip(t *testing.T) {
	s := pimmmu.MustNew(small(pimmmu.PIMMMU))
	const per = 1024
	// Non-contiguous core subset, reversed binding order, shared buffer.
	cores := []int{40, 7, 99, 3}
	buf := s.Malloc(len(cores) * per)
	for i := range buf.Data {
		buf.Data[i] = byte(i * 13)
	}
	x := s.PrepareXfer()
	for i, c := range cores {
		x.Bind(c, buf, uint64(i)*per)
	}
	if x.Len() != len(cores) {
		t.Fatalf("Len = %d", x.Len())
	}
	if _, err := x.PushToPIM(per, 0); err != nil {
		t.Fatal(err)
	}
	for i, c := range cores {
		want := buf.Data[i*per : (i+1)*per]
		if got := s.MRAM(c, 0, per); !bytes.Equal(got, want) {
			t.Fatalf("core %d MRAM mismatch", c)
		}
	}
	// Pull back into a different buffer through a fresh builder.
	out := s.Malloc(len(cores) * per)
	y := s.PrepareXfer()
	for i, c := range cores {
		y.Bind(c, out, uint64(i)*per)
	}
	if _, err := y.PushFromPIM(per, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data, buf.Data) {
		t.Fatal("staged round trip corrupted data")
	}
}

func TestXferBuilderErrors(t *testing.T) {
	s := pimmmu.MustNew(small(pimmmu.PIMMMU))
	if _, err := s.PrepareXfer().PushToPIM(64, 0); err == nil {
		t.Error("empty builder accepted")
	}
	buf := s.Malloc(64)
	x := s.PrepareXfer().Bind(0, buf, 32)
	if _, err := x.PushToPIM(64, 0); err == nil {
		t.Error("slice beyond buffer accepted")
	}
	y := s.PrepareXfer().Bind(0, nil, 0)
	if _, err := y.PushToPIM(64, 0); err == nil {
		t.Error("nil buffer accepted")
	}
	z := s.PrepareXfer().Bind(0, buf, 0).Bind(0, buf, 0)
	if _, err := z.PushToPIM(64, 0); err == nil {
		t.Error("duplicate core accepted")
	}
}

// The slice and MRAM bounds must hold for offsets near 2^64, where
// offset+length wraps.
func TestXferBuilderRanges(t *testing.T) {
	const top = math.MaxUint64 - 63 // offset+64 wraps to 0
	for _, tc := range []struct {
		name            string
		bufOff, mramOff uint64
		legal           bool
	}{
		{"in range", 64, 0, true},
		{"slice past buffer end", 128, 0, false},
		{"slice offset wraps", top, 0, false},
		{"MRAM offset wraps", 0, top, false},
	} {
		s := pimmmu.MustNew(small(pimmmu.PIMMMU))
		buf := s.Malloc(128)
		_, err := s.PrepareXfer().Bind(0, buf, tc.bufOff).PushToPIM(64, tc.mramOff)
		if (err == nil) != tc.legal {
			t.Errorf("%s: err=%v, want legal=%v", tc.name, err, tc.legal)
		}
	}
}

func TestXferBuilderSingleUse(t *testing.T) {
	s := pimmmu.MustNew(small(pimmmu.PIMMMU))
	buf := s.Malloc(64)
	x := s.PrepareXfer().Bind(0, buf, 0)
	if _, err := x.PushToPIM(64, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := x.PushToPIM(64, 0); err == nil {
		t.Error("builder reuse accepted")
	}
}
