package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve/api"
)

// FuzzJobRequest feeds untrusted bodies through the submit handler's
// own decode and validation. Every input must be rejected, or decode to
// a request that re-marshals and decodes back to itself; nothing may
// panic. Plain `go test` runs the seeds; explore with
//
//	go test -run '^$' -fuzz FuzzJobRequest -fuzztime 30s ./internal/serve
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"schema":"` + api.SchemaVersion + `","experiment":"table1"}`,
		`{"schema":"` + api.SchemaVersion + `","experiment":"fig8","scale":"full","shards":"auto","workers":3,"cache":"ro"}`,
		`{"schema":"` + api.SchemaVersion + `","experiment":"headline","shards":"4","cache":"off","core_lanes":"2"}`,
		`{"schema":"` + api.SchemaVersion + `","experiment":"table1"} trailing`,
		`{"schema":"` + api.SchemaVersion + `","experiment":"table1"}{"schema":"x"}`,
		`{"schema":"` + api.SchemaVersion + `","experiment":"fig8","workers":-1}`,
		`{"experiment":"fig8","schema":"` + api.SchemaVersion + `"}`,
		`[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	f.Fuzz(func(t *testing.T, in []byte) {
		req, err := decodeJobRequest(bytes.NewReader(in))
		if err != nil {
			return
		}
		if _, err := s.validate(req); err != nil {
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshaling an accepted request: %v", err)
		}
		back, err := decodeJobRequest(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("decoding a re-marshaled request %s: %v", out, err)
		}
		if back != req {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, back)
		}
	})
}
