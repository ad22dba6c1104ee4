package trace

import (
	"bytes"
	"io"
	"testing"
)

// The trace codecs read untrusted files. Each fuzz target requires every
// input to either fail with an error or decode to a stream that passes
// Validate and survives a re-encode and re-decode unchanged. Plain
// `go test` runs the seed corpora under testdata/fuzz; explore with
//
//	go test -run '^$' -fuzz FuzzDecode -fuzztime 30s ./internal/trace

func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		checkRoundTrip(t, recs, Encode, Decode)
	})
}

func FuzzDecodeText(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := DecodeText(bytes.NewReader(in))
		if err != nil {
			return
		}
		checkRoundTrip(t, recs, EncodeText, DecodeText)
	})
}

// checkRoundTrip requires a decoded stream to be valid and to encode and
// decode back to itself.
func checkRoundTrip(t *testing.T, recs []Record,
	enc func(io.Writer, []Record) error, dec func(io.Reader) ([]Record, error)) {
	t.Helper()
	if err := Validate(recs); err != nil {
		t.Fatalf("decoded an invalid stream: %v", err)
	}
	var buf bytes.Buffer
	if err := enc(&buf, recs); err != nil {
		t.Fatalf("re-encoding a decoded stream: %v", err)
	}
	back, err := dec(&buf)
	if err != nil {
		t.Fatalf("decoding a re-encoded stream: %v", err)
	}
	if !equalRecords(back, recs) {
		t.Fatalf("round trip changed the stream:\n%v\n%v", recs, back)
	}
}
