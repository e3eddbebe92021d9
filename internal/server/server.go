package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/workload"
)

// DefaultQueueDepth bounds the work queue when Config.QueueDepth is
// zero: enough to absorb a burst of sweep cells without letting one
// client queue unbounded work.
const DefaultQueueDepth = 256

// Config assembles a Server.
type Config struct {
	// Options fixes the provenance tuple every cell this server
	// simulates shares: instruction budget, sampling windows, retry
	// policy, journal. Hooks may be set for logging; the scheduler adds
	// its own accounting independently. Options.Parallel (default
	// GOMAXPROCS) also sizes the scheduler pool, which only stages
	// work: simulation parallelism is bounded by the runner's semaphore.
	Options experiments.Options
	// QueueDepth bounds queued-but-unstarted cells (default
	// DefaultQueueDepth). Beyond it, POST /v1/runs answers 503.
	QueueDepth int
	// Log, when non-nil, receives one line per simulation lifecycle
	// event (started / finished / refused).
	Log *log.Logger
}

// Server is the mdserve HTTP daemon: a Runner fronted by a bounded
// scheduler and a JSON API. Create with New, serve via ServeHTTP (it
// is an http.Handler), and Close after the HTTP server has drained.
type Server struct {
	cfg    Config
	fp     experiments.Fingerprint
	runner *experiments.Runner
	sched  *scheduler
	mux    *http.ServeMux
	start  time.Time
	eps    map[string]*endpointStats
	fleet  Fleet // nil when running single-process
}

// Fleet is the health/metrics surface a worker-process pool exposes to
// the server (satisfied by *fleet.Pool). When attached, /v1/healthz
// reports the pool's degraded flag and /v1/metrics embeds its
// per-worker liveness, steal, and restart counters.
type Fleet interface {
	Report() FleetReport
	Degraded() bool
}

// endpointStats is one route's atomic request accounting.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	nanos    atomic.Int64
}

// New builds a Server from cfg. The caller owns the journal inside
// cfg.Options (open it, prime the returned server's Runner with the
// replayed records, close it after Close).
func New(cfg Config) *Server {
	if cfg.Options.Parallel <= 0 {
		cfg.Options.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Server{
		cfg:    cfg,
		fp:     cfg.Options.Fingerprint(),
		runner: experiments.NewRunner(cfg.Options),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		eps:    make(map[string]*endpointStats),
	}
	s.sched = newScheduler(s.runner, cfg.Options.Parallel, cfg.QueueDepth)
	s.route("GET /v1/healthz", s.handleHealthz)
	s.route("GET /v1/options", s.handleOptions)
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("POST /v1/runs", s.handleRun)
	s.route("POST /v1/sweeps", s.handleSweep)
	return s
}

// Runner exposes the server's runner for priming from a replayed
// journal and for counter assertions in tests.
func (s *Server) Runner() *experiments.Runner { return s.runner }

// AttachFleet connects a worker-process pool's health surface. Call
// before serving: the healthz and metrics handlers read it unlocked.
func (s *Server) AttachFleet(f Fleet) { s.fleet = f }

// Workers reports the scheduler pool size after defaulting.
func (s *Server) Workers() int { return s.cfg.Options.Parallel }

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the scheduler. Call it only after the HTTP server has
// shut down (handlers are the queue's only submitters); queued cells
// finish — and reach the journal — before Close returns, which is the
// daemon's graceful-drain guarantee.
func (s *Server) Close() { s.sched.close() }

// CloseTimeout is Close bounded by d (d <= 0 waits forever). A
// non-empty result names the in-flight cells that outlived the drain:
// everything else finished and reached the journal, and the caller
// should report the stuck cells and exit non-zero.
func (s *Server) CloseTimeout(d time.Duration) []StuckCell {
	return s.sched.closeTimeout(d)
}

// route registers a handler wrapped with per-endpoint metrics.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	ep := &endpointStats{}
	s.eps[pattern] = ep
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		ep.requests.Add(1)
		ep.nanos.Add(int64(time.Since(start)))
		if sw.status >= 400 {
			ep.errors.Add(1)
		}
	})
}

// statusWriter records the response status for error accounting while
// forwarding Flush so streaming responses still reach the client
// incrementally.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok"}
	if s.fleet != nil {
		degraded := s.fleet.Degraded()
		resp.Degraded = &degraded
		if degraded {
			// Still 200: the daemon serves traffic (in-process fallback),
			// but operators and load balancers can see the fleet is gone.
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleOptions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, OptionsResponse{
		Fingerprint: s.fp,
		Benchmarks:  workload.Names(),
		Workers:     s.cfg.Options.Parallel,
		QueueDepth:  s.cfg.QueueDepth,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	eps := make(map[string]EndpointMetrics, len(s.eps))
	for pattern, ep := range s.eps { //md:orderindependent map marshaled to JSON object
		eps[pattern] = EndpointMetrics{
			Requests:     ep.requests.Load(),
			Errors:       ep.errors.Load(),
			SecondsTotal: time.Duration(ep.nanos.Load()).Seconds(),
		}
	}
	m := MetricsResponse{
		Counters:      s.runner.Counters(),
		Endpoints:     eps,
		Queue:         s.sched.queue(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if err := s.runner.JournalErr(); err != nil {
		m.JournalError = err.Error()
	}
	if s.fleet != nil {
		rep := s.fleet.Report()
		m.Fleet = &rep
	}
	writeJSON(w, http.StatusOK, m)
}

// checkMeta refuses a request whose provenance fingerprint is not this
// server's: its cells would be keyed under a different tuple, so a
// cached answer would silently be the wrong experiment.
func (s *Server) checkMeta(w http.ResponseWriter, meta *experiments.Fingerprint) bool {
	if meta == nil || *meta == s.fp {
		return true
	}
	writeJSON(w, http.StatusConflict, ErrorResponse{
		Error:  fmt.Sprintf("provenance mismatch: request %+v, server %+v", *meta, s.fp),
		Server: &s.fp,
	})
	return false
}

// checkBench validates a benchmark name against the suite before it
// can occupy queue space.
func checkBench(bench string) error {
	if strings.TrimSpace(bench) == "" {
		return fmt.Errorf("empty bench")
	}
	_, err := workload.ParseNames(bench)
	return err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := checkBench(req.Bench); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Config.Window <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("config.Window must be positive (did you send an empty config?)"))
		return
	}
	if !s.checkMeta(w, req.Meta) {
		return
	}

	done := make(chan taskResult, 1)
	t := &task{bench: req.Bench, cfg: req.Config, ctx: r.Context(), done: done}
	if err := s.sched.trySubmit(t); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		s.logf("run %s %s: refused: %v", req.Bench, req.Config.Name(), err)
		return
	}
	select {
	case res := <-done:
		if res.err != nil {
			status := http.StatusInternalServerError
			if r.Context().Err() != nil {
				status = statusClientClosedRequest
			}
			writeError(w, status, res.err)
			s.logf("run %s %s: %v", req.Bench, req.Config.Name(), res.err)
			return
		}
		rec, ok := s.runner.Record(req.Bench, req.Config)
		if !ok {
			// Every successful RunGuarded leaves a record; missing one is
			// a server bug, not a client error.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("no record for completed cell"))
			return
		}
		s.logf("run %s %s: %s in %.3fs", req.Bench, rec.Config, res.src, rec.WallSeconds)
		writeJSON(w, http.StatusOK, RunResponse{Record: rec, Source: res.src})
	case <-r.Context().Done():
		// Client gone: the worker will observe the dead context (or
		// finish and populate the cache for the next caller); nothing
		// useful can be written.
		writeError(w, statusClientClosedRequest, r.Context().Err())
	}
}

// statusClientClosedRequest is nginx's conventional status for a
// request abandoned by the client; it keeps these out of the 5xx
// error budget.
const statusClientClosedRequest = 499

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Benches) == 0 || len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("benches and configs must both be non-empty"))
		return
	}
	for _, b := range req.Benches {
		if err := checkBench(b); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	for i, c := range req.Configs {
		if c.Window <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("configs[%d].Window must be positive", i))
			return
		}
	}
	if !s.checkMeta(w, req.Meta) {
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) {
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: ", ev.Event)
		}
		json.NewEncoder(w).Encode(ev) // Encode appends the newline
		if sse {
			fmt.Fprint(w, "\n")
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	cells := len(req.Benches) * len(req.Configs)
	// Workers signal start and completion over channels sized so they
	// can never block on a slow client; the handler goroutine is the
	// only writer to the response.
	started := make(chan *task, cells)
	done := make(chan taskResult, cells)
	emit(Event{Event: "queued", Cells: cells})

	// Submission backpressures against the bounded queue in its own
	// goroutine so events stream while later cells are still queueing.
	go func() {
		for _, b := range req.Benches {
			for _, c := range req.Configs {
				t := &task{
					bench: b, cfg: c, ctx: r.Context(), done: done,
					started: func(t *task) { started <- t }, //md:ctxok started is buffered with one slot per cell; each task signals start at most once
				}
				if err := s.sched.submit(r.Context(), t); err != nil {
					done <- taskResult{t: t, err: err} //md:ctxok done is buffered with one slot per cell; each cell produces exactly one result
				}
			}
		}
	}()

	failed := 0
	for finished := 0; finished < cells; {
		select {
		case t := <-started:
			emit(Event{Event: "started", Bench: t.bench, Config: t.cfg.Name()})
		case res := <-done:
			finished++
			if res.err != nil {
				failed++
				emit(Event{Event: "failed", Bench: res.t.bench, Config: res.t.cfg.Name(), Error: res.err.Error()})
				continue
			}
			rec, ok := s.runner.Record(res.t.bench, res.t.cfg)
			if !ok {
				failed++
				emit(Event{Event: "failed", Bench: res.t.bench, Config: res.t.cfg.Name(), Error: "no record for completed cell"})
				continue
			}
			emit(Event{Event: "finished", Bench: res.t.bench, Config: rec.Config, Source: res.src, Record: &rec})
		case <-r.Context().Done():
			// Client gone mid-stream: stop writing. In-queue cells are
			// skipped by their dead context; in-flight ones finish into
			// the cache.
			return
		}
	}
	emit(Event{Event: "done", Cells: cells, Failed: failed})
	s.logf("sweep: %d cells, %d failed", cells, failed)
}
