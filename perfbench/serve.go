package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/fleet"
	"mdspec/internal/server"
	"mdspec/internal/stats"
)

// serveWorkers is the fleet size of serve-mixed (mdserve -workers).
const serveWorkers = 2

// primeExperiments is the earlier sweep whose cells the daemon's
// journal holds when a pass starts: one `mdexp -server ... fig2 fig6`,
// run during set-up. fig2 covers every benchmark, so it also fills the
// recording directory.
var primeExperiments = []string{"fig2", "fig6"}

// minServePasses is the fewest passes of an untraced serve-mixed run,
// so its set-up time and rates are medians of at least three.
const minServePasses = 3

// serveInputs is the seeded input of serve-mixed: every cell the
// daemon can be asked for (the cells of mdexp all), and the seed that
// orders each pass's invocations.
type serveInputs struct {
	cells []cell
	index map[string]int // bench|config hash → index into cells
	seed  int64
}

// newServeInputs indexes serve-mixed's cells.
func newServeInputs(cells []cell, seed int64) serveInputs {
	in := serveInputs{cells: cells, index: map[string]int{}, seed: seed}
	for i, c := range cells {
		in.index[c.bench+"|"+c.hash] = i
	}
	return in
}

// clients is the invocations of pass n, per client in the order the
// client runs them. Each of parallelism() clients runs every experiment
// of mdexp all, one `mdexp -server` invocation per experiment, in an
// order the pass's seed permutes per client. An invocation's Runner answers
// its own repeats from its memo, as mdexp -server does, so only the
// invocation's unique cells reach the daemon. Hits are cells that an
// earlier invocation, either client or the primed journal finished;
// misses are cells nobody has asked for yet; concurrent duplicates are
// the two clients asking for the same cell at once.
func (in serveInputs) clients(n int) [][]string {
	rng := rand.New(rand.NewSource(passSeed(in.seed, n)))
	var out [][]string
	for k := 0; k < parallelism(); k++ {
		var exps []string
		for _, j := range rng.Perm(len(allExperiments)) {
			exps = append(exps, allExperiments[j])
		}
		out = append(out, exps)
	}
	return out
}

// serveInputsFor enumerates serve-mixed's cells and draws its inputs.
func serveInputsFor(ctx context.Context, w workloadSpec, seed int64) (serveInputs, error) {
	cs, err := enumerate(ctx, w.experiments)
	if err != nil {
		return serveInputs{}, err
	}
	return newServeInputs(cs.cells, seed), nil
}

// daemon is one running mdserve process tree.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	hc   *http.Client
	log  string
	done chan struct{}
	err  error
}

// startDaemon starts mdserve and waits until it answers and every
// fleet worker is alive. A daemon that exits during start-up is retried
// on another port: the free port it was given may have been taken
// before it could listen.
func startDaemon(e *env, w workloadSpec, workers int, journal, recdir string) (*daemon, error) {
	for attempt := 1; ; attempt++ {
		d, err := tryStartDaemon(e, w, workers, journal, recdir)
		if err == nil || !errors.Is(err, errExitedEarly) || attempt == 3 {
			return d, err
		}
	}
}

// errExitedEarly marks a daemon that exited before it was ready.
var errExitedEarly = errors.New("mdserve exited during start-up")

func tryStartDaemon(e *env, w workloadSpec, workers int, journal, recdir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.work, fmt.Sprintf("mdserve-%d.log", port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(e.bin, "mdserve"),
		"-addr", addr, "-n", strconv.FormatInt(w.insts, 10), "-par", strconv.Itoa(parallelism()),
		"-workers", strconv.Itoa(workers), "-journal", journal, "-recdir", recdir,
		"-quiet", "-drain", "10s")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+e.tmp)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mdserve: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		addr: addr,
		hc:   &http.Client{Transport: &http.Transport{DisableCompression: true}},
		log:  logPath,
		done: make(chan struct{}),
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(workers, 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /v1/healthz, then /v1/metrics until the fleet
// reports every worker alive.
func (d *daemon) waitReady(workers int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%w: %v (log %s)", errExitedEarly, d.err, d.log)
		default:
		}
		resp, err := d.hc.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if workers == 0 {
					return nil
				}
				m, err := d.metrics()
				if err == nil && m.Fleet != nil && m.Fleet.Alive == workers {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mdserve not ready within %s (log %s)", limit, d.log)
}

func (d *daemon) metrics() (server.MetricsResponse, error) {
	var m server.MetricsResponse
	resp, err := d.hc.Get("http://" + d.addr + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// pids is the daemon and its live fleet workers.
func (d *daemon) pids() []int {
	pids := []int{d.cmd.Process.Pid}
	if m, err := d.metrics(); err == nil && m.Fleet != nil {
		for _, w := range m.Fleet.Workers {
			if w.PID > 0 {
				pids = append(pids, w.PID)
			}
		}
	}
	return pids
}

// stop shuts the daemon down gracefully and waits for it; the process
// group is killed if it does not exit in time.
func (d *daemon) stop() {
	pids := d.pids()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is fine
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // last resort; Wait below reaps
		<-d.done
	}
	// Workers die with their supervisor; make sure none outlives it.
	for _, pid := range pids[1:] {
		for i := 0; i < 500 && syscall.Kill(pid, 0) == nil; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		_ = syscall.Kill(pid, syscall.SIGKILL) // ESRCH once it has gone
	}
	d.hc.CloseIdleConnections()
}

// request is one cell request a client sent, as it saw it.
type request struct {
	bench      string
	cfg        config.Machine
	start, end time.Time
	res        *stats.Run
	source     experiments.RunSource
	err        error
}

// invocation runs one `mdexp -server ADDR -n N -par PAR EXP...`: the
// provenance check, then the experiments through a fresh Runner with
// the daemon mounted as its backend through server.Client, which
// retries refusals on its own schedule. record sees every request that
// reaches the daemon.
func invocation(ctx context.Context, w workloadSpec, addr string, par int, exps []string, record func(request)) error {
	opt := runnerOptions(w, "")
	opt.Parallel = par
	cl := server.NewClient(addr, opt)
	if err := cl.Check(ctx); err != nil {
		return err
	}
	r := experiments.NewRunner(opt)
	defer r.Close()
	r.UseBackend(func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		q := request{bench: bench, cfg: cfg, start: time.Now()}
		q.res, q.source, q.err = cl.RunWithSource(ctx, bench, cfg)
		q.end = time.Now()
		record(q)
		return q.res, q.err
	})
	for _, exp := range exps {
		if err := generators[exp](ctx, r); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
	}
	return nil
}

// serveSample is one request of a serve-mixed timed phase.
type serveSample struct {
	sample
	start time.Time
	res   *stats.Run
	wall  float64 // a miss's simulation time, from its journal record (traced runs)
}

// servePass is one pass of serve-mixed: a daemon started on a copy of
// the primed journal, every client's invocations run to completion
// against it, and the daemon stopped.
type servePass struct {
	samples  []serveSample
	wall     time.Duration
	begin    time.Time     // when the daemon was started
	setup    time.Duration // daemon start until every worker is alive
	metrics  server.MetricsResponse
	rssMB    float64 // summed peak RSS of the daemon and its workers
	queueMax int
	journal  string
	// failures are the invocations that failed, one error each.
	failures []error
}

// servePhase is the passes of one timed phase, checked.
type servePhase struct {
	passes []servePass
	// simulated is the statistics of the cells the passes simulated, by
	// index into the inputs' cells.
	simulated map[int]*stats.Run
	// dups counts requests sent while the other client's request for the
	// same cell was in flight and simulating it; dedups counts answers
	// singleflight gave.
	dups, dedups int
}

func (ph servePhase) samples() []sample {
	var out []sample
	for _, p := range ph.passes {
		for _, s := range p.samples {
			out = append(out, s.sample)
		}
	}
	return out
}

// windows is one window per pass.
func (ph servePhase) windows() []window {
	var out []window
	for _, p := range ph.passes {
		ss := make([]sample, len(p.samples))
		for i, s := range p.samples {
			ss[i] = s.sample
		}
		out = append(out, windowOf(ss, p.wall))
	}
	return out
}

func (ph servePhase) each(f func(p servePass) float64) []float64 {
	out := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		out[i] = f(p)
	}
	return out
}

// primeJournal runs the earlier sweep (primeExperiments) against a
// daemon with the given fleet size, leaving its cells in journal and
// every recording in recdir.
func primeJournal(ctx context.Context, e *env, w workloadSpec, workers int, journal, recdir string) error {
	for _, d := range []string{journal, recdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	dm, err := startDaemon(e, w, workers, journal, recdir)
	if err != nil {
		return err
	}
	defer dm.stop()
	return invocation(ctx, w, dm.addr, parallelism(), primeExperiments, func(request) {})
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// servePasses primes a journal, then runs passes against a daemon of
// the given fleet size until the passes have lasted d and there are at
// least minPasses, and checks every answer. A traced phase also polls
// the work queue's depth and reads each miss's simulation time from the
// pass's journal. The last pass's journal is kept for the caller.
func servePasses(ctx context.Context, e *env, w workloadSpec, in serveInputs, workers int, d time.Duration, minPasses int, traced bool, o *outcome) (servePhase, error) {
	tag := "w" + strconv.Itoa(workers)
	primed := filepath.Join(e.work, "journal-"+tag+"-primed")
	recdir := filepath.Join(e.work, "recdir")
	if err := primeJournal(ctx, e, w, workers, primed, recdir); err != nil {
		return servePhase{}, err
	}
	ph := servePhase{simulated: map[int]*stats.Run{}}
	var wall time.Duration
	for n := 0; wall < d || n < minPasses; n++ {
		if n > 0 {
			_ = os.RemoveAll(ph.passes[n-1].journal) // only the last pass's journal is kept
		}
		p, err := runServePass(ctx, e, w, in, n, workers, primed, recdir, traced)
		if err != nil {
			return ph, err
		}
		ph.passes = append(ph.passes, p)
		wall += p.wall
	}
	ph.check(e, w, in, o)
	return ph, nil
}

// runServePass runs pass n of the clients' invocations on a fresh copy of
// the primed journal.
func runServePass(ctx context.Context, e *env, w workloadSpec, in serveInputs, n, workers int, primed, recdir string, traced bool) (servePass, error) {
	p := servePass{journal: fmt.Sprintf("%s-pass%d", strings.TrimSuffix(primed, "-primed"), n)}
	if err := copyDir(primed, p.journal); err != nil {
		return p, err
	}
	t0 := time.Now()
	dm, err := startDaemon(e, w, workers, p.journal, recdir)
	if err != nil {
		return p, err
	}
	p.begin, p.setup = t0, time.Since(t0)
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(20 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-t.C:
					if m, err := dm.metrics(); err == nil {
						p.queueMax = max(p.queueMax, m.Queue.Depth)
					}
				}
			}
		}()
	}

	var mu sync.Mutex
	var reqs []request
	record := func(q request) {
		mu.Lock()
		reqs = append(reqs, q)
		mu.Unlock()
	}
	var errs []error // guarded by mu
	var wg sync.WaitGroup
	start := time.Now()
	for k, exps := range in.clients(n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, exp := range exps {
				if err := invocation(ctx, w, dm.addr, 1, []string{exp}, record); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("client %d: %w", k, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	close(stopPoll)
	pollWG.Wait()
	p.metrics, err = dm.metrics()
	if err == nil {
		p.rssMB = peakRSSSum(dm.pids())
	}
	dm.stop()
	if err != nil {
		return p, err
	}

	var walls map[string]float64
	if traced {
		recs, err := experiments.ReplayJournalDir(p.journal, runnerOptions(w, ""))
		if err != nil {
			return p, err
		}
		walls = map[string]float64{}
		for _, r := range recs {
			walls[r.Bench+"|"+r.ConfigHash] = r.WallSeconds
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].start.Before(reqs[j].start) })
	for _, q := range reqs {
		key := q.bench + "|" + q.cfg.Hash()
		i, ok := in.index[key]
		if !ok {
			return p, fmt.Errorf("%s under %s is not a cell of mdexp all", q.bench, q.cfg.Name())
		}
		s := serveSample{
			sample: sample{cell: i, latency: q.end.Sub(q.start), source: q.source, failed: q.err != nil},
			start:  q.start,
			res:    q.res,
			wall:   walls[key],
		}
		if q.err == nil && q.source == experiments.SourceSimulated {
			s.committed = q.res.Committed
		}
		p.samples = append(p.samples, s)
	}
	p.failures = errs
	return p, nil
}

// minDuplicates is how many concurrent duplicates of simulating cells
// a phase must send before it requires a singleflight answer. A
// duplicate that reaches the daemon just after the simulation finished,
// while the first reply is still on its way, is a cache hit instead.
const minDuplicates = 3

// check verifies every answer of the phase against its golden digest,
// collects the simulated cells, counts concurrent duplicates and
// singleflight answers, and fails the run if duplicates of simulating
// cells were sent but singleflight never answered one.
func (ph *servePhase) check(e *env, w workloadSpec, in serveInputs, o *outcome) {
	for _, p := range ph.passes {
		for _, s := range p.samples {
			c := in.cells[s.cell]
			o.attempted++
			if s.failed {
				o.fail("%s under %s: request failed", c.bench, c.cfg.Name())
				continue
			}
			e.golden.check(o, w.name, c, w.insts, s.res)
			switch s.source {
			case experiments.SourceSimulated:
				ph.simulated[s.cell] = s.res
			case experiments.SourceDedup:
				ph.dedups++
			}
		}
		ph.dups += concurrentDuplicates(p.samples)
		// A failed invocation counts once more, besides its failed
		// request: it may have failed before reaching the daemon.
		for _, err := range p.failures {
			o.attempted++
			o.fail("%v", err)
		}
	}
	if ph.dups >= minDuplicates && ph.dedups == 0 {
		o.fail("%d concurrent duplicate requests, but singleflight answered none", ph.dups)
	}
}

// concurrentDuplicates counts the requests that were in flight at the
// same time as another request for the same cell that simulated it.
// Which of two concurrent requests reaches the daemon first, and so
// simulates, need not be the one sent first.
func concurrentDuplicates(samples []serveSample) int {
	sims := map[int][]serveSample{}
	for _, s := range samples {
		if s.source == experiments.SourceSimulated {
			sims[s.cell] = append(sims[s.cell], s)
		}
	}
	n := 0
	for _, s := range samples {
		if s.source == experiments.SourceSimulated {
			continue
		}
		for _, t := range sims[s.cell] {
			if t.start.Before(s.start.Add(s.latency)) && s.start.Before(t.start.Add(t.latency)) {
				n++
				break
			}
		}
	}
	return n
}

// reportServeMix publishes how the phase's requests were answered, and
// the phase's per-pass fleet reports.
func reportServeMix(rep *report, ph servePhase) {
	bySource := map[experiments.RunSource]int{}
	total := 0
	for _, s := range ph.samples() {
		bySource[s.source]++
		total++
	}
	for _, src := range []experiments.RunSource{experiments.SourceSimulated, experiments.SourceCache, experiments.SourceJournal, experiments.SourceDedup} {
		rep.set("requests."+string(src), float64(bySource[src]), "count", total)
	}
	rep.set("requests.concurrent_duplicates", float64(ph.dups), "count", total)
	var fleets []*fleet.Report
	var perPass []map[string]float64
	for _, p := range ph.passes {
		fleets = append(fleets, p.metrics.Fleet)
		var hits, misses []float64
		for _, s := range p.samples {
			switch s.source {
			case experiments.SourceCache, experiments.SourceJournal:
				hits = append(hits, ms(s.latency))
			case experiments.SourceSimulated:
				misses = append(misses, ms(s.latency))
			}
		}
		perPass = append(perPass, map[string]float64{
			"wall_s":      p.wall.Seconds(),
			"cells_per_s": float64(len(p.samples)) / p.wall.Seconds(),
			"hit_p50_ms":  percentile(hits, 50),
			"miss_p50_ms": percentile(misses, 50),
		})
	}
	rep.extra["fleet"] = fleets
	rep.extra["per_pass"] = perPass
	rep.extra["passes"] = len(ph.passes)
}

// runServe is the untraced serve-mixed run.
func runServe(ctx context.Context, e *env, w workloadSpec, rep *report, o *outcome) error {
	in, err := serveInputsFor(ctx, w, e.seed)
	if err != nil {
		return err
	}
	ph, err := servePasses(ctx, e, w, in, serveWorkers, e.seconds, minServePasses, false, o)
	if err != nil {
		return err
	}
	reportLatencies(rep, ph.samples(), ph.windows())
	reportServeMix(rep, ph)
	setups := ph.each(func(p servePass) float64 { return p.setup.Seconds() })
	rep.extra["setup_s"] = setups
	rep.set("setup_s", median(setups), "s", len(ph.passes))
	rep.set("peak_rss_mb", median(ph.each(func(p servePass) float64 { return p.rssMB })), "MB", len(ph.passes))
	rep.set("ok_frac", okFrac(o), "ratio", o.attempted)
	return nil
}

// peakRSSSum is the summed peak RSS of some processes, in MB.
func peakRSSSum(pids []int) float64 {
	var sum float64
	for _, pid := range pids {
		sum += peakRSSMB(pid)
	}
	return sum
}

// fleetBalance summarizes a phase's fleet reports: the largest worker's
// share of the cells the fleet ran, and total steals and restarts.
func fleetBalance(ph servePhase) (shareMax float64, steals, restarts int64) {
	cells := map[string]int64{}
	var total int64
	for _, p := range ph.passes {
		f := p.metrics.Fleet
		if f == nil {
			continue
		}
		for _, w := range f.Workers {
			cells[w.ID] += w.Cells
			total += w.Cells
			steals += w.Steals
			restarts += w.Restarts
		}
	}
	var top int64
	for _, n := range cells {
		top = max(top, n)
	}
	if total > 0 {
		shareMax = float64(top) / float64(total)
	}
	return shareMax, steals, restarts
}

// sortedCells is the indices of m in ascending order.
func sortedCells(m map[int]*stats.Run) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
