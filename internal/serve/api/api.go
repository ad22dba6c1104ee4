// Package api is the versioned wire contract of the pimmu-serve job
// API: every request and response body carries an explicit schema field
// checked against SchemaVersion, trace-codec style — a mismatched
// schema is rejected up front instead of being half-understood. The
// package is deliberately pure: it imports nothing from this repository
// (enforced by cmd/pimmu-lint), so CLIs, the server, and future
// distributed-sweep workers all speak the same types without dragging
// in the simulator.
//
// The structured ExperimentResult is the canonical form of every
// experiment's output; the rendered text table is one field of it, not
// a separate artifact. That is what lets the same payload serve HTTP
// responses, `-format json` on the CLIs, and cached replays
// byte-identically.
package api

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion names the wire schema this package speaks. Bump it when
// a field changes meaning or shape; additive optional fields do not
// require a bump.
const SchemaVersion = "pimmu-serve/v1"

// CheckSchema validates a request or payload schema stamp. An empty
// stamp is rejected too: a client that does not say what it speaks
// cannot be assumed compatible.
func CheckSchema(got string) error {
	if got != SchemaVersion {
		return fmt.Errorf("schema %q not supported (this build speaks %q)", got, SchemaVersion)
	}
	return nil
}

// Job states, in lifecycle order. A job moves queued -> running ->
// done|failed; deduped submissions attach to an existing job and
// observe whatever state it is in.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobRequest is the body of POST /v1/jobs: one experiment render at one
// scale on an explicit engine class and cache mode. Zero values select
// the server's defaults (quick scale, plain engine, rw cache), mirroring
// the CLI flag defaults.
type JobRequest struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Shards takes the CLI flag syntax: a count or "auto". "0" (the
	// default) selects the plain engine, any other value the sharded
	// engine. The two engine classes are separate event orders, so
	// results can differ between them (fig8, fig14); within a class they
	// are byte-identical.
	Shards string `json:"shards,omitempty"`
	// Workers caps the sweep worker pool for this job (0 = server
	// default).
	Workers int `json:"workers,omitempty"`
	// Cache is the result-cache mode for this job: "rw" (default),
	// "ro", or "off". Serve-level dedup of identical submissions happens
	// regardless; this only controls the per-design-point store.
	Cache string `json:"cache,omitempty"`
}

// Progress counts plan jobs finished out of planned. Static experiments
// plan zero jobs and complete at 0/0.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the body of GET /v1/jobs/{id} and the POST response: one
// job's position in its lifecycle.
type JobStatus struct {
	Schema     string   `json:"schema"`
	ID         string   `json:"id"`
	Key        string   `json:"key"`
	Experiment string   `json:"experiment"`
	Scale      string   `json:"scale"`
	State      string   `json:"state"`
	Progress   Progress `json:"progress"`
	// Deduped reports that this submission attached to an already
	// accepted identical job instead of starting a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Cached reports that the result was served from the completed-job
	// store without simulating.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// JobEvent is one line of the NDJSON progress stream
// (GET /v1/jobs/{id}/events): a state or progress transition. The
// stream ends after the first done or failed event.
type JobEvent struct {
	Schema   string   `json:"schema"`
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// ExperimentResult is the canonical structured form of one experiment's
// output: the machine-readable per-design-point results plus the
// deterministic text render of exactly those results. Identical
// (experiment, scale, config) inputs produce byte-identical
// ExperimentResult JSON regardless of worker count —
// the server stores and serves the marshaled bytes verbatim.
type ExperimentResult struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	// Scale is empty for CLI operations that have no quick/full axis
	// (pimmu-sim transfers, replay/load runs).
	Scale string `json:"scale,omitempty"`
	// Op carries a non-registry operation's parameters (direction, size,
	// trace identity, load axis); empty for registry experiments, whose
	// identity is (Experiment, Scale).
	Op string `json:"op,omitempty"`
	// Results is the experiment's compute-phase result set, JSON-encoded.
	// Its shape is experiment-specific (the same pure structs the text
	// renderer consumes).
	Results json.RawMessage `json:"results"`
	// Text is the rendered table — byte-identical to what the CLIs print
	// in -format text.
	Text string `json:"text"`
}

// NewResult builds an ExperimentResult from a compute-phase result set
// and its text render, stamping the schema.
func NewResult(experiment, scale string, results any, text string) (ExperimentResult, error) {
	raw, err := json.Marshal(results)
	if err != nil {
		return ExperimentResult{}, fmt.Errorf("encode %s results: %w", experiment, err)
	}
	return ExperimentResult{
		Schema:     SchemaVersion,
		Experiment: experiment,
		Scale:      scale,
		Results:    raw,
		Text:       text,
	}, nil
}

// JobResult is the body of GET /v1/jobs/{id}/result: the dedup key the
// job resolved to and its result.
type JobResult struct {
	Schema string           `json:"schema"`
	Key    string           `json:"key"`
	Result ExperimentResult `json:"result"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
}

// ExperimentInfo is one entry of GET /v1/experiments.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Brief string `json:"brief"`
}

// ExperimentList is the body of GET /v1/experiments.
type ExperimentList struct {
	Schema      string           `json:"schema"`
	Experiments []ExperimentInfo `json:"experiments"`
}
