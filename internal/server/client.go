package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/retry"
	"mdspec/internal/stats"
)

// Client talks to an mdserve daemon. Its Run method has the
// experiments.SimulateFunc shape, so a local Runner can mount it as a
// remote backend (Runner.UseBackend) and every experiment — memo
// cache, hooks, artifacts included — runs unchanged against the
// daemon; that is mdexp -server.
//
// A 503 (bounded queue at capacity) does not fail the sweep: the
// client waits out the server's Retry-After hint — floored by the
// deterministic capped-backoff schedule of internal/retry — and
// resubmits, up to the policy's attempt budget.
type Client struct {
	base  string
	hc    *http.Client
	meta  experiments.Fingerprint
	retry retry.Policy
	// sleep waits between overload retries; tests substitute a recorder
	// so retry scheduling is asserted without wall-clock waits.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient returns a client for the daemon at addr (host:port, a
// full http:// URL, or unix:<path> for a daemon listening on a unix
// socket), stamping every request with the provenance fingerprint of
// opt so the server can refuse mismatched cells. Overload retries
// follow opt.Retry (zero-valued fields take the retry.Default
// schedule).
func NewClient(addr string, opt experiments.Options) *Client {
	// Simulations can legitimately take minutes; cancellation comes
	// from the request context, not a transport timeout.
	hc := &http.Client{}
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		// Every request dials the socket; the URL's host is a placeholder.
		hc.Transport = &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
		addr = "http://mdserve"
	} else if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:  strings.TrimRight(addr, "/"),
		hc:    hc,
		meta:  opt.Fingerprint(),
		retry: opt.Retry.WithDefaults(),
		sleep: ctxSleep,
	}
}

// ctxSleep waits d out unless ctx dies first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter parses a 503's Retry-After seconds hint (0 when absent
// or malformed; HTTP-date values are ignored as the server never
// sends them).
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// StatusError is a non-2xx answer from the daemon: Code is its HTTP
// status. Any answer but 503 is final — the daemon ran the cell, or
// judged the request, and asking again cannot change the verdict.
type StatusError struct {
	Code int
	msg  string
}

func (e *StatusError) Error() string { return e.msg }

// decodeError turns a non-2xx response into a *StatusError.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er ErrorResponse
	msg := fmt.Sprintf("mdserve: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		if er.Server != nil {
			msg = fmt.Sprintf("mdserve: %s (HTTP %d); the daemon serves %+v — restart it with matching -n/-sampled flags or adjust yours", er.Error, resp.StatusCode, *er.Server)
		} else {
			msg = fmt.Sprintf("mdserve: %s (HTTP %d)", er.Error, resp.StatusCode)
		}
	}
	return &StatusError{Code: resp.StatusCode, msg: msg}
}

// Check verifies the daemon is reachable and serves exactly this
// client's provenance tuple, so a sweep fails fast with a clear
// message instead of 409ing on its first cell.
func (c *Client) Check(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/options", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("mdserve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	var opts OptionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&opts); err != nil {
		return fmt.Errorf("mdserve: decoding /v1/options: %w", err)
	}
	if opts.Fingerprint != c.meta {
		return fmt.Errorf("mdserve: provenance mismatch: this sweep wants %+v, the daemon serves %+v (align -n/-sampled, or restart the daemon)", c.meta, opts.Fingerprint)
	}
	return nil
}

// Run requests one (benchmark, configuration) cell from the daemon
// and returns its statistics. The daemon answers from its
// content-addressed cache when it can; either way the stats are
// bit-identical to a local simulation by the determinism contract.
func (c *Client) Run(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	res, _, err := c.RunWithSource(ctx, bench, cfg)
	return res, err
}

// RunWithSource is Run, also reporting the daemon-side result source
// (simulated / cache / dedup / journal). A saturated daemon (503) is
// retried on the deterministic backoff schedule, honoring the
// server's Retry-After hint when it is longer than the backoff.
func (c *Client) RunWithSource(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, experiments.RunSource, error) {
	body, err := json.Marshal(RunRequest{Bench: bench, Config: cfg, Meta: &c.meta})
	if err != nil {
		return nil, "", err
	}
	for attempt := 1; ; attempt++ {
		res, src, wait, err := c.runOnce(ctx, body, bench, cfg)
		if err == nil || wait < 0 || attempt >= c.retry.MaxAttempts {
			return res, src, err
		}
		if d := c.retry.Backoff(attempt); d > wait {
			wait = d
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return nil, "", serr
		}
	}
}

// runOnce performs one POST /v1/runs attempt. wait >= 0 marks a
// retryable overload refusal (the server's Retry-After hint); -1
// marks a final answer.
func (c *Client) runOnce(ctx context.Context, body []byte, bench string, cfg config.Machine) (*stats.Run, experiments.RunSource, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, "", -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", -1, fmt.Errorf("mdserve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return nil, "", retryAfter(resp), decodeError(resp)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", -1, decodeError(resp)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, "", -1, fmt.Errorf("mdserve: decoding run response: %w", err)
	}
	if rr.Record.Stats == nil {
		return nil, "", -1, fmt.Errorf("mdserve: response for %s under %s carries no stats", bench, cfg.Name())
	}
	return rr.Record.Stats, rr.Source, -1, nil
}
