// Package wire is the JSON contract of mdserve's single-cell endpoint,
// POST /v1/runs. The server decodes it, server.Client and the fleet
// supervisor (which drives its worker processes through the same
// endpoint) encode it, so all three share this one set of types.
package wire

import (
	"mdspec/internal/config"
	"mdspec/internal/experiments"
)

// RunRequest is the body of POST /v1/runs: one (benchmark, machine
// configuration) cell. Config is the full machine description — the
// server hashes it into the cache key exactly as a local sweep would.
// Meta, when present, is the client's provenance fingerprint; a
// mismatch with the server's is refused with 409, because the
// requested cell would not be one of this server's cells.
type RunRequest struct {
	Bench  string                   `json:"bench"`
	Config config.Machine           `json:"config"`
	Meta   *experiments.Fingerprint `json:"meta,omitempty"`
}

// RunResponse answers a single-cell request: the cell's full
// provenance-carrying record, and where the result came from
// (simulated, cache, dedup, journal).
type RunResponse struct {
	Record experiments.RunRecord `json:"record"`
	Source experiments.RunSource `json:"source"`
}

// ErrorResponse is the JSON body of every non-2xx answer. Server
// carries the daemon's provenance fingerprint on 409 mismatches so a
// client can see exactly which tuple component diverged.
type ErrorResponse struct {
	Error  string                   `json:"error"`
	Server *experiments.Fingerprint `json:"server,omitempty"`
}
