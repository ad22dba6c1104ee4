package xfer

import (
	"testing"

	"repro/internal/memsys"
)

func TestStreamMovesAllBytes(t *testing.T) {
	r := newRig(memsys.MapHetMap)
	cfg := DefaultStreamConfig()
	const lines = 4096
	r.span(t, func(onDone func()) { RunStream(r.cpu, 0, lines, cfg, onDone) })
	want := uint64(cfg.Threads * lines * 64)
	if got := r.sys.DRAM.Stats().BytesRead(); got != want {
		t.Errorf("DRAM read %d bytes, want %d", got, want)
	}
}

func TestStreamIsReadOnly(t *testing.T) {
	r := newRig(memsys.MapHetMap)
	r.span(t, func(onDone func()) { RunStream(r.cpu, 0, 512, DefaultStreamConfig(), onDone) })
	if got := r.sys.DRAM.Stats().BytesWritten(); got != 0 {
		t.Errorf("read-only stream wrote %d bytes", got)
	}
}

// A strided stream must touch strided addresses, reading the same byte
// count but spanning stride x the footprint.
func TestStreamStride(t *testing.T) {
	r := newRig(memsys.MapHetMap)
	cfg := DefaultStreamConfig()
	cfg.Threads = 1
	cfg.StrideLines = 4
	r.span(t, func(onDone func()) { RunStream(r.cpu, 0, 256, cfg, onDone) })
	if got := r.sys.DRAM.Stats().BytesRead(); got != 256*64 {
		t.Errorf("strided stream read %d bytes, want %d", got, 256*64)
	}
}

// MLP mapping must beat locality mapping on this benchmark — the Fig. 8
// property at the engine level.
func TestStreamMappingSensitivity(t *testing.T) {
	run := func(mode memsys.MappingMode) float64 {
		r := newRig(mode)
		cfg := DefaultStreamConfig()
		return throughput(uint64(cfg.Threads)*8192*64, r.span(t, func(onDone func()) {
			RunStream(r.cpu, 0, 8192, cfg, onDone)
		}))
	}
	loc := run(memsys.MapLocalityBoth)
	mlp := run(memsys.MapHetMap)
	if mlp < 1.5*loc {
		t.Errorf("MLP stream %.1f GB/s not well above locality %.1f GB/s", mlp/1e9, loc/1e9)
	}
}

func TestStreamConfigValidate(t *testing.T) {
	if err := DefaultStreamConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultStreamConfig()
	bad.StrideLines = 0
	if bad.Validate() == nil {
		t.Error("StrideLines=0 accepted")
	}
}

func TestStreamZeroLinesPanics(t *testing.T) {
	r := newRig(memsys.MapHetMap)
	defer func() {
		if recover() == nil {
			t.Error("zero-length stream did not panic")
		}
	}()
	RunStream(r.cpu, 0, 0, DefaultStreamConfig(), nil)
}
