package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/wire"
)

// The control channel between the supervisor and its worker processes
// is plain HTTP over a per-worker unix socket: each worker is a full
// mdserve server (cmd/mdserve -worker) listening on its socket, and
// the supervisor drives it through the same /v1/runs and /v1/healthz
// endpoints, with the same internal/wire types, a network client uses.

// socketClient returns an HTTP client pinned to one unix socket; the
// request URL's host is a placeholder.
func socketClient(path string) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", path)
		},
	}}
}

// workerBase is the placeholder URL base for socket-pinned clients.
const workerBase = "http://mdserve-worker"

// permanentError marks a worker answer that re-dispatching cannot fix
// (a provenance mismatch, a malformed cell): the pool delivers it to
// the caller instead of requeueing the cell.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// postRun asks the worker behind hc to simulate one cell. A non-nil
// error that is not a *permanentError means the worker gave no usable
// answer (transport failure, overload, truncated response) and the
// cell may be re-dispatched.
func postRun(ctx context.Context, hc *http.Client, bench string, cfg config.Machine, meta *experiments.Fingerprint) (*experiments.RunRecord, experiments.RunSource, error) {
	body, err := json.Marshal(wire.RunRequest{Bench: bench, Config: cfg, Meta: meta})
	if err != nil {
		return nil, "", &permanentError{fmt.Errorf("fleet: encoding cell: %w", err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerBase+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, "", &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("fleet: worker rpc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<10))
		var er wire.ErrorResponse
		errText := strings.TrimSpace(string(msg))
		if json.Unmarshal(msg, &er) == nil && er.Error != "" {
			errText = er.Error
		}
		werr := fmt.Errorf("fleet: worker HTTP %d: %s", resp.StatusCode, errText)
		// 4xx answers are judgments about the request itself; retrying
		// them against another worker cannot change the verdict. 5xx and
		// overload answers are about the worker, so the cell survives.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, "", &permanentError{werr}
		}
		return nil, "", werr
	}
	var rr wire.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, "", fmt.Errorf("fleet: decoding worker response: %w", err)
	}
	if rr.Record.Stats == nil {
		return nil, "", fmt.Errorf("fleet: worker response for %s carries no stats", bench)
	}
	return &rr.Record, rr.Source, nil
}

// probeHealthz checks worker liveness over the control socket.
func probeHealthz(ctx context.Context, hc *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerBase+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz HTTP %d", resp.StatusCode)
	}
	return nil
}
