package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
)

// randomTrace builds a valid random record stream.
func randomTrace(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	var tsc clock.Picos
	for i := range recs {
		tsc += clock.Picos(rng.Intn(100000))
		kind := KindRead
		if rng.Intn(2) == 1 {
			kind = KindWrite
		}
		addr := uint64(rng.Intn(1<<20)) * mem.LineBytes
		if rng.Intn(4) == 0 {
			addr += mem.PIMBase // exercise large addresses
		}
		recs[i] = Record{
			TSC:   tsc,
			Kind:  kind,
			Addr:  addr,
			Bytes: uint32(1+rng.Intn(8)) * mem.LineBytes,
		}
	}
	return recs
}

func equalRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: encode then decode is the identity, for both codecs, over
// many random traces including the empty one.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		recs := randomTrace(rng, rng.Intn(200))
		var bin bytes.Buffer
		if err := Encode(&bin, recs); err != nil {
			t.Fatalf("trial %d: Encode: %v", trial, err)
		}
		back, err := Decode(&bin)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v", trial, err)
		}
		if !equalRecords(recs, back) {
			t.Fatalf("trial %d: binary round trip lost records", trial)
		}
		var txt bytes.Buffer
		if err := EncodeText(&txt, recs); err != nil {
			t.Fatalf("trial %d: EncodeText: %v", trial, err)
		}
		back, err = DecodeText(&txt)
		if err != nil {
			t.Fatalf("trial %d: DecodeText: %v", trial, err)
		}
		if !equalRecords(recs, back) {
			t.Fatalf("trial %d: text round trip lost records", trial)
		}
	}
}

// Property: every strict prefix of a valid binary encoding is rejected.
func TestTruncatedBinaryRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randomTrace(rng, 20)
	var buf bytes.Buffer
	if err := Encode(&buf, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded without error", cut, len(full))
		}
	}
}

func TestCorruptBinaryRejected(t *testing.T) {
	recs := []Record{{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 64}}
	encode := func() []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t.Run("magic", func(t *testing.T) {
		b := encode()
		b[0] = 'X'
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("version", func(t *testing.T) {
		b := encode()
		b[4] = Version + 1
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Error("future version accepted")
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("version mismatch error unclear: %v", err)
		}
	})
	t.Run("flags", func(t *testing.T) {
		b := encode()
		b[5] = 0xff
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Error("unknown flags accepted")
		}
	})
	t.Run("kind", func(t *testing.T) {
		// Header(6) + count(1) + dTSC(1), then the kind byte.
		b := encode()
		b[8] = 9
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Error("unknown kind accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(nil)); err == nil {
			t.Error("empty input accepted")
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		// A tiny file claiming 2^30 records must fail with a decode
		// error, not attempt a gigantic upfront allocation.
		b := []byte(Magic)
		b = append(b, Version, 0)
		b = binary.AppendUvarint(b, 1<<30)
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Error("huge claimed count accepted")
		}
	})
}

// binaryRecord builds a one-record binary trace from raw field values,
// bypassing Encode's validation.
func binaryRecord(dt uint64, kind byte, dl int64, lines uint64) []byte {
	b := append([]byte(Magic), Version, 0)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, dt)
	b = append(b, kind)
	b = binary.AppendVarint(b, dl)
	return binary.AppendUvarint(b, lines)
}

// Decode must reject every stream Validate rejects, including those its
// delta accumulators could wrap into a plausible-looking record: a TSC
// past the int64 range used to decode negative, and a line delta past
// the address space used to wrap back to a small address.
func TestDecodeRejectsOverflow(t *testing.T) {
	if recs, err := Decode(bytes.NewReader(binaryRecord(0, 0, 1, 1))); err != nil || recs[0].Addr != 0x40 {
		t.Fatalf("well-formed record: %v, %v", recs, err)
	}
	for name, b := range map[string][]byte{
		"tsc":     binaryRecord(1<<63, 0, 0, 1),
		"line":    binaryRecord(0, 0, 1<<59+1, 1),
		"neg":     binaryRecord(0, 0, -1, 1),
		"lines-0": binaryRecord(0, 0, 0, 0),
		"huge":    binaryRecord(0, 0, 0, maxRecordBytes/mem.LineBytes+1),
	} {
		if recs, err := Decode(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decoded %v with no error", name, recs)
		}
	}
}

// Encode and Decode share one footprint bound: a record Decode would
// reject cannot be written.
func TestFootprintBound(t *testing.T) {
	ok := []Record{{Kind: KindRead, Bytes: maxRecordBytes}}
	var buf bytes.Buffer
	if err := Encode(&buf, ok); err != nil {
		t.Fatalf("record at the bound rejected: %v", err)
	}
	if back, err := Decode(&buf); err != nil || !equalRecords(back, ok) {
		t.Fatalf("record at the bound did not round-trip: %v, %v", back, err)
	}
	big := []Record{{Kind: KindRead, Bytes: maxRecordBytes + mem.LineBytes}}
	if err := Encode(&bytes.Buffer{}, big); err == nil {
		t.Error("Encode accepted a record past the footprint bound")
	}
	if err := Validate(big); err == nil {
		t.Error("Validate accepted a record past the footprint bound")
	}
}

func TestBadTextRejected(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"header":       "not-a-trace\n0 R 0x0 64\n",
		"fields":       textHeader + "\n0 R 0x0\n",
		"kind":         textHeader + "\n0 Q 0x0 64\n",
		"addr":         textHeader + "\n0 R zzz 64\n",
		"bytes":        textHeader + "\n0 R 0x0 zzz\n",
		"misaligned":   textHeader + "\n0 R 0x7 64\n",
		"zero-bytes":   textHeader + "\n0 R 0x0 0\n",
		"partial-line": textHeader + "\n0 R 0x0 65\n",
		"time-warp":    textHeader + "\n100 R 0x0 64\n50 R 0x40 64\n",
	}
	for name, in := range cases {
		if _, err := DecodeText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: bad text accepted", name)
		}
	}
}

// Encode must refuse a stream Validate rejects, so invalid traces can
// never reach disk.
func TestEncodeValidates(t *testing.T) {
	bad := [][]Record{
		{{TSC: 0, Kind: KindRead, Addr: 3, Bytes: 64}},               // misaligned
		{{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 32}},               // partial line
		{{TSC: 0, Kind: Kind(7), Addr: 0, Bytes: 64}},                // bad kind
		{{TSC: 5, Addr: 0, Bytes: 64}, {TSC: 1, Addr: 0, Bytes: 64}}, // time warp
	}
	for i, recs := range bad {
		if err := Encode(&bytes.Buffer{}, recs); err == nil {
			t.Errorf("case %d: Encode accepted an invalid stream", i)
		}
	}
}

// The binary form must stay compact: a sequential stream costs a few
// bytes per record, not the 21-byte naive fixed layout.
func TestBinaryCompactness(t *testing.T) {
	recs := MustGenerate(PatternStream, GenConfig{
		Records: 1024, FootprintLines: 1024, StrideLines: 1,
		Gap: clock.Nanosecond, WritePercent: 0, ZipfTheta: 0.5, Seed: 1,
	})
	var buf bytes.Buffer
	if err := Encode(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if perRec := float64(buf.Len()) / float64(len(recs)); perRec > 6 {
		t.Errorf("sequential stream costs %.1f bytes/record, want <= 6", perRec)
	}
}

func TestFileRoundTripAndSniffing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := randomTrace(rng, 64)
	for _, text := range []bool{false, true} {
		path := t.TempDir() + "/t.pmt"
		if err := WriteFile(path, recs, text); err != nil {
			t.Fatalf("text=%v: WriteFile: %v", text, err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("text=%v: ReadFile: %v", text, err)
		}
		if !equalRecords(recs, back) {
			t.Errorf("text=%v: file round trip lost records", text)
		}
	}
	if _, err := ReadFile(t.TempDir() + "/missing.pmt"); err == nil {
		t.Error("missing file read without error")
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{TSC: 0, Kind: KindRead, Addr: 128, Bytes: 64},
		{TSC: 10, Kind: KindWrite, Addr: 0, Bytes: 128},
		{TSC: 20, Kind: KindRead, Addr: mem.PIMBase, Bytes: 64},
	}
	s := Summarize(recs)
	if s.Records != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.BytesRead != 128 || s.BytesWritten != 128 {
		t.Errorf("bytes wrong: %+v", s)
	}
	if s.Duration != 20 || s.PIMRecords != 1 {
		t.Errorf("duration/PIM wrong: %+v", s)
	}
	if s.MinAddr != 0 || s.MaxAddr != mem.PIMBase+64 {
		t.Errorf("address span wrong: %+v", s)
	}
}
