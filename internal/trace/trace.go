// Package trace implements trace-driven workloads: a compact record
// format for memory traffic observed at the mem.Port boundary, a
// versioned binary codec plus a human-readable text form, synthetic
// trace generators modelling common application access patterns, a
// Recorder that captures live traffic, and one injector, the Driver,
// that feeds a record stream back into a memory system with full
// backpressure handling — on the records' own timeline (ProcessReplay)
// or on an open-loop arrival schedule.
//
// The paper's evaluation is driven by real-application memory traffic;
// this package is how the repository gets from synthetic harness
// transfers to arbitrary recorded workloads. Everything here is
// deterministic: generators are seeded, the Driver runs on the
// single-threaded simulation engine, and replaying the same trace on
// the same configuration produces bit-identical statistics on every
// run and at every sweep worker count.
package trace

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
)

// Kind distinguishes read records from write records.
type Kind uint8

const (
	// KindRead is a load.
	KindRead Kind = iota
	// KindWrite is a store.
	KindWrite
)

func (k Kind) String() string {
	if k == KindWrite {
		return "W"
	}
	return "R"
}

// Record is one traced request: at TSC picoseconds from the start of
// the trace, an access of Bytes bytes (a multiple of the line size)
// beginning at line-aligned address Addr. Multi-line records replay as
// consecutive line requests issued back to back. The fields run from
// widest to narrowest, so padding adds only 3 bytes: a record is 24.
type Record struct {
	// TSC is the issue time relative to the first record, in
	// picoseconds.
	TSC clock.Picos
	// Addr is the line-aligned physical address of the first line.
	Addr uint64
	// Bytes is the access footprint, a positive multiple of
	// mem.LineBytes.
	Bytes uint32
	// Kind is KindRead or KindWrite.
	Kind Kind
}

// Lines reports how many line requests the record expands to.
func (r Record) Lines() uint32 { return r.Bytes / mem.LineBytes }

func (r Record) String() string {
	return fmt.Sprintf("%12d %s 0x%010x %4d", r.TSC, r.Kind, r.Addr, r.Bytes)
}

// maxRecordBytes bounds one record's footprint.
const maxRecordBytes = 1 << 31

// Validate checks a record stream for the invariants the codec and the
// Driver rely on: timestamps start at or after zero and never go
// backwards, addresses are line-aligned, and footprints are positive
// line multiples of at most 2 GiB.
func Validate(recs []Record) error {
	var prev clock.Picos
	for i, r := range recs {
		if r.TSC < prev {
			return fmt.Errorf("trace: record %d: tsc %d before predecessor %d", i, r.TSC, prev)
		}
		if r.Kind > KindWrite {
			return fmt.Errorf("trace: record %d: unknown kind %d", i, r.Kind)
		}
		if r.Addr%mem.LineBytes != 0 {
			return fmt.Errorf("trace: record %d: address 0x%x not line-aligned", i, r.Addr)
		}
		if r.Bytes == 0 || r.Bytes%mem.LineBytes != 0 {
			return fmt.Errorf("trace: record %d: %d bytes is not a positive line multiple", i, r.Bytes)
		}
		if r.Bytes > maxRecordBytes {
			return fmt.Errorf("trace: record %d: %d bytes exceeds the %d-byte footprint bound", i, r.Bytes, maxRecordBytes)
		}
		prev = r.TSC
	}
	return nil
}

// Duration is the time span covered by the record stream (last issue
// timestamp; completions may extend past it).
func Duration(recs []Record) clock.Picos {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].TSC
}

// Summary aggregates a record stream for inspection output.
type Summary struct {
	Records      int
	Reads        int
	Writes       int
	BytesRead    uint64
	BytesWritten uint64
	Duration     clock.Picos
	MinAddr      uint64
	MaxAddr      uint64 // highest touched address + 1
	PIMRecords   int    // records targeting the PIM region
}

// Summarize computes the aggregate view of a record stream.
func Summarize(recs []Record) Summary {
	s := Summary{Records: len(recs), Duration: Duration(recs)}
	for i, r := range recs {
		if r.Kind == KindWrite {
			s.Writes++
			s.BytesWritten += uint64(r.Bytes)
		} else {
			s.Reads++
			s.BytesRead += uint64(r.Bytes)
		}
		if mem.SpaceOf(r.Addr) == mem.SpacePIM {
			s.PIMRecords++
		}
		if i == 0 || r.Addr < s.MinAddr {
			s.MinAddr = r.Addr
		}
		if end := r.Addr + uint64(r.Bytes); end > s.MaxAddr {
			s.MaxAddr = end
		}
	}
	return s
}

// Recorder captures requests accepted at the mem.Port boundary as a
// record stream. Attach its Tap via memsys.(*System).SetTap (or
// system.(*System).RecordTrace); timestamps are rebased so the first
// accepted request defines t = 0.
type Recorder struct {
	recs    []Record
	base    clock.Picos
	started bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Tap observes one accepted request. Its signature matches the memsys
// port tap, so a Recorder plugs in directly.
func (rc *Recorder) Tap(now clock.Picos, r *mem.Req) {
	if !rc.started {
		rc.base = now
		rc.started = true
	}
	k := KindRead
	if r.Kind == mem.Write {
		k = KindWrite
	}
	rc.recs = append(rc.recs, Record{
		TSC:   now - rc.base,
		Kind:  k,
		Addr:  r.Addr,
		Bytes: mem.LineBytes,
	})
}

// Records returns the captured stream; the caller must not mutate it
// while recording continues.
func (rc *Recorder) Records() []Record { return rc.recs }

// Len reports how many requests have been captured.
func (rc *Recorder) Len() int { return len(rc.recs) }
