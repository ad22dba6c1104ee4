package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/mem"
)

// The binary format, version 1:
//
//	offset  bytes  field
//	0       4      magic "PMTR"
//	4       1      version (1)
//	5       1      flags (0, reserved)
//	6       -      uvarint record count
//	...            records
//
// Each record is delta-encoded against its predecessor:
//
//	uvarint  tsc delta (picoseconds; timestamps are non-decreasing)
//	1 byte   kind (0 read, 1 write)
//	varint   address delta in lines (zig-zag signed)
//	uvarint  footprint in lines (>= 1)
//
// Sequential streams therefore cost ~4 bytes per record regardless of
// absolute addresses or timestamps. Decoding rejects truncated input,
// an unknown magic or version, and any record violating Validate.

// Magic identifies a binary trace stream.
const Magic = "PMTR"

// Version is the current binary format version.
const Version = 1

// textHeader is the first line of the text form.
const textHeader = "pimtrace v1"

// Encode writes recs in the versioned binary format. The stream is
// validated first so a bad trace fails loudly at write time, not at
// replay time.
func Encode(w io.Writer, recs []Record) error {
	if err := Validate(recs); err != nil {
		return err
	}
	buf := make([]byte, 0, 6+binary.MaxVarintLen64+len(recs)*8)
	buf = append(buf, Magic...)
	buf = append(buf, Version, 0)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	var prevTSC clock.Picos
	var prevLine int64
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, uint64(r.TSC-prevTSC))
		buf = append(buf, byte(r.Kind))
		line := int64(r.Addr / mem.LineBytes)
		buf = binary.AppendVarint(buf, line-prevLine)
		buf = binary.AppendUvarint(buf, uint64(r.Lines()))
		prevTSC = r.TSC
		prevLine = line
	}
	_, err := w.Write(buf)
	return err
}

// Decode reads a binary trace stream, rejecting truncated or corrupt
// input and unsupported versions.
func Decode(r io.Reader) ([]Record, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	header := make([]byte, 6)
	if err := readFull(br, header); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(header[:4]) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a binary trace)", header[:4])
	}
	if header[4] != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", header[4], Version)
	}
	if header[5] != 0 {
		return nil, fmt.Errorf("trace: unknown flags 0x%x", header[5])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	const maxRecords = 1 << 32
	if count > maxRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	// Cap the preallocation: the count is untrusted until that many
	// records actually decode, and a corrupt header must produce an
	// error, not a giant allocation.
	capHint := count
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	recs := make([]Record, 0, capHint)
	var tsc clock.Picos
	var line int64
	for i := uint64(0); i < count; i++ {
		dt, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d truncated: %w", i, err)
		}
		kindB, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d truncated: %w", i, err)
		}
		if kindB > byte(KindWrite) {
			return nil, fmt.Errorf("trace: record %d: unknown kind %d", i, kindB)
		}
		dl, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d truncated: %w", i, err)
		}
		lines, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d truncated: %w", i, err)
		}
		if dt > math.MaxInt64-uint64(tsc) {
			return nil, fmt.Errorf("trace: record %d: tsc overflows", i)
		}
		tsc += clock.Picos(dt)
		if dl > maxLine-line || dl < -line {
			return nil, fmt.Errorf("trace: record %d: address outside [0, 2^64)", i)
		}
		line += dl
		// Validate enforces the footprint bound; this check only keeps
		// the conversion below from wrapping.
		if lines > math.MaxUint32/mem.LineBytes {
			return nil, fmt.Errorf("trace: record %d: bad footprint %d lines", i, lines)
		}
		recs = append(recs, Record{
			TSC:   tsc,
			Kind:  Kind(kindB),
			Addr:  uint64(line) * mem.LineBytes,
			Bytes: uint32(lines) * mem.LineBytes,
		})
	}
	if err := Validate(recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// maxLine is the highest line index whose address fits in a uint64.
const maxLine = math.MaxUint64 / mem.LineBytes

// readFull reads exactly len(p) bytes from a byte reader.
func readFull(br io.ByteReader, p []byte) error {
	for i := range p {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		p[i] = b
	}
	return nil
}

// EncodeText writes recs in the human-readable text form:
//
//	pimtrace v1
//	# tsc_ps kind addr bytes
//	0 R 0x0 64
//	1000 W 0x40 128
//
// Lines beginning with '#' are comments.
func EncodeText(w io.Writer, recs []Record) error {
	if err := Validate(recs); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, textHeader)
	fmt.Fprintln(bw, "# tsc_ps kind addr bytes")
	for _, r := range recs {
		fmt.Fprintf(bw, "%d %s 0x%x %d\n", r.TSC, r.Kind, r.Addr, r.Bytes)
	}
	return bw.Flush()
}

// DecodeText reads the text form.
func DecodeText(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty text trace")
	}
	if got := strings.TrimSpace(sc.Text()); got != textHeader {
		return nil, fmt.Errorf("trace: bad text header %q (want %q)", got, textHeader)
	}
	var recs []Record
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(f))
		}
		tsc, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad tsc %q", lineNo, f[0])
		}
		var kind Kind
		switch f[1] {
		case "R", "r":
			kind = KindRead
		case "W", "w":
			kind = KindWrite
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, f[1])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(f[2], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, f[2])
		}
		bytes, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad byte count %q", lineNo, f[3])
		}
		recs = append(recs, Record{TSC: clock.Picos(tsc), Kind: kind, Addr: addr, Bytes: uint32(bytes)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := Validate(recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// WriteFile writes recs to path, in the text form when text is true and
// the binary form otherwise.
func WriteFile(path string, recs []Record, text bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if text {
		err = EncodeText(f, recs)
	} else {
		err = Encode(f, recs)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads a trace from path, sniffing the binary magic to pick
// the codec.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(4)
	if err == nil && string(head) == Magic {
		return Decode(br)
	}
	return DecodeText(br)
}
