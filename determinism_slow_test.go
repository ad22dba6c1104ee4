//go:build slow

// The full determinism audit (`make test-slow`): every simulation-backed
// harness experiment — fig4, fig6, fig8, fig13a, fig13b, fig14, fig15a,
// fig15b, fig16, headline, replay, loadcurve — must render byte-identical output
// between a serial sweep (-workers 1) and a parallel one, and across
// reruns. The fast tier keeps one representative (Fig8, in
// determinism_test.go); this tag extends the check to the whole suite,
// so any experiment that grows shared mutable state or
// iteration-order dependence fails the nightly target. The serial
// render is also pinned byte for byte in testdata/render_NAME.golden,
// and headline's whole `pimmu run headline -format json` line (its
// results are what the serve benchmark digests) in
// testdata/result_headline_json.golden; regenerate deliberately with
//
//	go test -tags slow -run EveryExperiment -update .
package pimmmu_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
)

// jsonGoldens names the experiments whose structured result is pinned
// too, as the NDJSON line `pimmu run NAME -format json` prints.
var jsonGoldens = map[string]bool{"headline": true}

// staticExperiments render configuration tables without running a
// simulation; there is nothing to sweep.
var staticExperiments = map[string]bool{"table1": true, "area": true}

// renderRunner renders one experiment through a fresh Runner.
func renderRunner(e harness.Experiment, workers int) []byte {
	r := &harness.Runner{Workers: workers}
	var buf bytes.Buffer
	e.Render(&buf, harness.Quick, e.Compute(r, harness.Quick))
	return buf.Bytes()
}

func TestEveryExperimentSerialParallelIdentical(t *testing.T) {
	for _, e := range harness.All() {
		if staticExperiments[e.Name] {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := harness.ComputeResult(&harness.Runner{Workers: 1}, e, harness.Quick)
			if err != nil {
				t.Fatal(err)
			}
			serial := []byte(res.Text)
			parallel := renderRunner(e, 8)
			rerun := renderRunner(e, 8)
			if len(serial) == 0 {
				t.Fatal("experiment rendered nothing")
			}
			if !bytes.Equal(serial, parallel) {
				t.Errorf("parallel output differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
					serial, parallel)
			}
			if !bytes.Equal(parallel, rerun) {
				t.Errorf("rerun differs\n--- first ---\n%s--- second ---\n%s", parallel, rerun)
			}
			checkGoldenFile(t, "render_"+e.Name+".golden", string(serial))
			if jsonGoldens[e.Name] {
				var line bytes.Buffer
				if err := json.NewEncoder(&line).Encode(res); err != nil {
					t.Fatal(err)
				}
				checkGoldenFile(t, "result_"+e.Name+"_json.golden", line.String())
			}
		})
	}
}
