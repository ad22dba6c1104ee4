package resultcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry feeds untrusted entry files to the store's decoder.
// Every input must fail, or decode to a payload from which encodeEntry
// rebuilds the input byte for byte: an accepted entry has exactly one
// encoding. Plain `go test` runs the seeds; explore with
//
//	go test -run '^$' -fuzz FuzzDecodeEntry -fuzztime 30s ./internal/resultcache
func FuzzDecodeEntry(f *testing.F) {
	for _, seed := range []struct{ key, cv, payload string }{
		{"k", "v1", "payload"},
		{"", "", ""},
		{"harness/v1 fig8", "src-hash", string(bytes.Repeat([]byte{0x80}, 200))},
	} {
		entry := encodeEntry(seed.key, seed.cv, []byte(seed.payload))
		f.Add(entry, seed.key, seed.cv)
		f.Add(entry[:len(entry)-1], seed.key, seed.cv)
	}
	// The code-version length 2 spelled in two varint bytes (0x82 0x00).
	entry := encodeEntry("k", "v1", []byte("p"))
	f.Add(append(append(entry[:6:6], 0x82, 0x00), entry[7:]...), "k", "v1")
	f.Fuzz(func(t *testing.T, data []byte, key, cv string) {
		payload, err := decodeEntry(data, key, cv)
		if err != nil {
			return
		}
		if again := encodeEntry(key, cv, payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted entry does not re-encode to itself:\n in  %x\n out %x", data, again)
		}
	})
}
