// Package fleet shards mdserve simulation cells across a supervised
// fleet of worker processes. The supervisor (Pool) forks N `mdserve
// -worker` children over the same journal and recording directories,
// assigns sweep cells to them over HTTP-on-unix-socket control
// channels, and survives every worker failure mode the in-process
// robustness layer cannot contain: a panic that escapes recovery, a
// wedged cell exceeding its wall-clock budget, an OOM SIGKILL, a
// deadlocked scheduler. The containment argument is the paper's own
// (§4.2): pay only for the misspeculated slice — here, the one dead
// worker's in-flight cells — never the whole window.
//
// Journal ownership is lease-based: each worker appends to its own
// runs.<id>.journal segment under a heartbeat-stamped lease file
// (experiments.OpenJournalSegment). The supervisor respawns a slot
// only after waitpid has reaped the dead worker, so the respawned
// process finds a lease naming a PID that no longer exists on this
// host and reclaims it at once. A restarted process merges every
// segment via experiments.ReplayJournalDir, so nothing a worker
// journaled before dying is ever re-simulated.
//
// The control channel is plain HTTP over a per-worker unix socket:
// each worker is a full mdserve server listening on its socket, and
// the supervisor drives it through server.Client, the same client
// mdexp -server uses. A worker's HTTP answer is final — its Runner has
// already taken the cell through the retry ladder a single-process
// daemon uses — so only "no answer" (a transport failure, a budget
// kill, a 503 from a draining or full worker) re-dispatches a cell.
//
// Dispatch is work-stealing: cells land on the least-loaded live
// worker's queue, and an idle worker's delivery runners steal from the
// longest backlog. Cross-process dedup rides on the shared
// content-addressed recording cache plus the caller-side singleflight
// (the Pool is mounted behind experiments.Runner.UseBackend, which
// collapses identical concurrent cells before they reach dispatch).
//
// Degradation is graceful and total-loss-proof: while any worker
// lives, its queue absorbs the work; when the whole fleet is down
// longer than Config.DegradeAfter, the Pool flips to degraded and runs
// cells through Config.Fallback (the in-process simulation path),
// bounded by a semaphore so a dead fleet cannot oversubscribe the
// host. Liveness, steal, restart, and heartbeat-miss counters per
// worker are exported via Report for /v1/metrics; /v1/healthz reports
// `degraded: true` off the same state.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/faultinject"
	"mdspec/internal/parsim"
	"mdspec/internal/retry"
	"mdspec/internal/server"
	"mdspec/internal/stats"
)

// ErrPoolClosed is returned for cells submitted to (or still queued
// in) a Pool that has been closed.
var ErrPoolClosed = errors.New("fleet: pool closed")

// Config describes a worker fleet.
type Config struct {
	// Procs is the number of worker processes to supervise.
	Procs int
	// Exec is the worker binary (normally os.Executable() — mdserve
	// re-executes itself with -worker).
	Exec string
	// Args builds the argv (minus argv[0]) for one worker slot; it must
	// include whatever flags put the child in worker mode listening on
	// the given unix socket with journal segment id WorkerID(slot).
	Args func(slot int, socket string) []string
	// Dir is where per-worker control sockets are created.
	Dir string
	// Options are the supervisor's experiment options: their
	// provenance fingerprint is stamped on every dispatched cell and
	// checked against each worker's before it joins dispatch.
	Options experiments.Options
	// CellBudget bounds one cell's wall-clock on a worker; on expiry
	// the worker is presumed wedged, killed, and the cell re-queued.
	// Zero disables the budget.
	CellBudget time.Duration
	// HeartbeatEvery is the supervisor's liveness probe period
	// (default 1s); heartbeatMisses consecutive failed probes get the
	// worker SIGKILLed and respawned.
	HeartbeatEvery time.Duration
	// DegradeAfter is how long the Pool tolerates zero live workers
	// before flipping to degraded in-process execution. Default 5s.
	DegradeAfter time.Duration
	// Restart is the capped-backoff policy between respawns of one
	// slot. Only the delay schedule is used: a supervisor never gives
	// up on its slot (the delay saturates at Restart.MaxDelay), because
	// permanent abandonment would silently shrink the fleet.
	Restart retry.Policy
	// Fallback executes a cell in-process when the fleet cannot
	// (degraded mode, or a cell out of dispatch attempts). Required.
	Fallback experiments.SimulateFunc
	// Log receives supervision events; nil means log.Default().
	Log *log.Logger
}

const (
	// perWorker is the delivery concurrency per worker process: how
	// many cells one worker holds in flight.
	perWorker = 2
	// spawnTimeout bounds how long a freshly forked worker may take to
	// pass its readiness check before it is killed and counted as a
	// failed spawn; it is also the SIGTERM grace period at shutdown.
	spawnTimeout = 10 * time.Second
	// heartbeatMisses consecutive failed liveness probes get a worker
	// SIGKILLed and respawned.
	heartbeatMisses = 3
	// dispatchAttempts is how many "no answer" deliveries (crashed
	// worker, transport error, budget kill, 503) one cell may consume
	// before the Pool completes it through Fallback instead: a cell
	// that kills every worker it touches must not orbit forever.
	dispatchAttempts = 5
	// fallbackPar bounds concurrent Fallback executions.
	fallbackPar = 2
)

func (c Config) withDefaults() Config {
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 5 * time.Second
	}
	c.Restart = c.Restart.WithDefaults()
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// WorkerID is the journal segment id for a worker slot ("w0", "w1",
// ...); cmd/mdserve passes it to the child as -worker-id, so every
// incarnation of a slot owns the same segment.
func WorkerID(slot int) string { return fmt.Sprintf("w%d", slot) }

// worker is one supervised slot. Everything here is immutable after
// Start except the atomics, which are the per-worker counters Report
// exports; the mutable scheduling state (queue, liveness, in-flight
// count) lives in Pool-level slices guarded by Pool.mu.
type worker struct {
	slot    int
	id      string
	socket  string
	client  *server.Client // one attempt per call: the pool's requeue is the only retry loop
	wake    chan struct{}  // cap 1: nudges idle delivery runners
	killReq chan struct{}  // cap 1: asks the supervisor to SIGKILL the child

	pid      atomic.Int64
	restarts atomic.Int64
	steals   atomic.Int64
	cells    atomic.Int64
	hbMisses atomic.Int64
}

// cell is one dispatched (bench, config) simulation. A cell has
// exactly one owner at a time — the enqueuer until it lands in a
// queue, then whichever delivery runner popped it — so attempts needs
// no lock; requeues hand ownership back through Pool.mu.
type cell struct {
	bench    string
	cfg      config.Machine
	ctx      context.Context
	done     chan cellResult // cap 1, single send via finish
	attempts int
}

type cellResult struct {
	st  *stats.Run
	err error
}

func (c *cell) finish(st *stats.Run, err error) {
	select {
	case c.done <- cellResult{st, err}:
	default:
	}
}

// Pool is the fleet supervisor: process lifecycle, work-stealing
// dispatch, and degraded fallback behind one Simulate entry point.
type Pool struct {
	cfg     Config
	workers []*worker // immutable after Start
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	fbSem         parsim.Sem
	fallbackCells atomic.Int64

	mu         sync.Mutex
	queues     [][]*cell //md:guardedby mu — per-slot backlog, popped front-first
	pending    []*cell   //md:guardedby mu — cells with no live worker to queue on
	alive      []bool    //md:guardedby mu
	inflight   []int     //md:guardedby mu — cells a slot's runners hold in flight
	aliveCount int       //md:guardedby mu
	downSince  time.Time //md:guardedby mu — when aliveCount last hit zero
	degraded   bool      //md:guardedby mu
	closed     bool      //md:guardedby mu
}

// Start forks and supervises the fleet. The returned Pool is live
// immediately: cells submitted before the first worker is ready wait
// in the pending list (or degrade to Fallback if no worker arrives
// within DegradeAfter). Close releases everything.
func Start(ctx context.Context, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Exec == "" || cfg.Args == nil {
		return nil, errors.New("fleet: Config.Exec and Config.Args are required")
	}
	if cfg.Fallback == nil {
		return nil, errors.New("fleet: Config.Fallback is required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("fleet: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: socket dir: %w", err)
	}
	pctx, cancel := context.WithCancel(ctx)
	p := &Pool{
		cfg:       cfg,
		ctx:       pctx,
		cancel:    cancel,
		fbSem:     parsim.NewSem(fallbackPar),
		queues:    make([][]*cell, cfg.Procs),
		alive:     make([]bool, cfg.Procs),
		inflight:  make([]int, cfg.Procs),
		downSince: time.Now(), // nobody alive yet: the degrade clock starts now
	}
	copt := cfg.Options
	copt.Retry = retry.Policy{MaxAttempts: 1}
	for slot := 0; slot < cfg.Procs; slot++ {
		w := &worker{
			slot:    slot,
			id:      WorkerID(slot),
			socket:  filepath.Join(cfg.Dir, fmt.Sprintf("worker%d.sock", slot)),
			wake:    make(chan struct{}, 1),
			killReq: make(chan struct{}, 1),
		}
		w.client = server.NewClient("unix:"+w.socket, copt)
		p.workers = append(p.workers, w)
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.supervise(pctx, w)
		for i := 0; i < perWorker; i++ {
			p.wg.Add(1)
			go p.runLoop(pctx, w)
		}
	}
	p.wg.Add(1)
	go p.degradeWatch(pctx)
	return p, nil
}

// Simulate runs one cell through the fleet and is the
// experiments.SimulateFunc mounted behind Runner.UseBackend. It blocks
// until a worker (or the degraded fallback) answers, the caller's ctx
// dies, or the pool closes.
func (p *Pool) Simulate(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	c := &cell{bench: bench, cfg: cfg, ctx: ctx, done: make(chan cellResult, 1)}
	useFallback, err := p.admit(c)
	if err != nil {
		return nil, err
	}
	if useFallback {
		p.runFallback(c)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case r := <-c.done:
		return r.st, r.err
	}
}

// admit places a fresh cell: least-loaded live worker's queue, the
// pending list while the fleet is merely down, or (degraded, true) to
// tell the caller to run the fallback itself.
func (p *Pool) admit(c *cell) (useFallback bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, ErrPoolClosed
	}
	if p.aliveCount == 0 {
		if p.degraded {
			return true, nil
		}
		p.pending = append(p.pending, c)
		return false, nil
	}
	slot := p.leastLoadedLocked()
	p.queues[slot] = append(p.queues[slot], c)
	p.wakeAll()
	return false, nil
}

// leastLoadedLocked picks the live slot with the smallest backlog +
// in-flight load. Caller holds p.mu.
//
//md:locked mu
func (p *Pool) leastLoadedLocked() int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for slot, ok := range p.alive {
		if !ok {
			continue
		}
		if load := len(p.queues[slot]) + p.inflight[slot]; load < bestLoad {
			best, bestLoad = slot, load
		}
	}
	return best
}

// requeue returns a cell whose delivery failed to the dispatch state;
// ownership passes back to the pool.
func (p *Pool) requeue(c *cell) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.finish(nil, ErrPoolClosed)
		return
	}
	if p.aliveCount > 0 {
		slot := p.leastLoadedLocked()
		p.queues[slot] = append(p.queues[slot], c)
		p.wakeAll()
		p.mu.Unlock()
		return
	}
	if p.degraded {
		p.mu.Unlock()
		p.asyncFallback(c)
		return
	}
	p.pending = append(p.pending, c)
	p.mu.Unlock()
}

// wakeAll nudges every delivery runner; non-blocking sends on cap-1
// channels make this safe to call under p.mu.
func (p *Pool) wakeAll() {
	for _, w := range p.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// next hands one cell to a delivery runner for slot w: its own backlog
// first, then a steal from the longest other backlog, then the pending
// list. ok=false means the pool is closed. A nil cell with ok=true
// means "nothing to do, wait for a wake".
func (p *Pool) next(w *worker) (c *cell, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false
	}
	if !p.alive[w.slot] {
		return nil, true // our process is down; cells were redistributed
	}
	if len(p.queues[w.slot]) > 0 {
		c = p.popLocked(w.slot)
	} else if victim := p.longestQueueLocked(w.slot); victim >= 0 {
		c = p.popLocked(victim)
		w.steals.Add(1)
	} else if len(p.pending) > 0 {
		c = p.pending[0]
		p.pending = p.pending[1:]
	}
	if c != nil {
		p.inflight[w.slot]++
	}
	return c, true
}

// popLocked pops the front of slot's queue. Caller holds p.mu.
//
//md:locked mu
func (p *Pool) popLocked(slot int) *cell {
	c := p.queues[slot][0]
	p.queues[slot] = p.queues[slot][1:]
	return c
}

// longestQueueLocked finds the steal victim: the slot (other than
// thief) with the deepest non-empty backlog. Caller holds p.mu.
//
//md:locked mu
func (p *Pool) longestQueueLocked(thief int) int {
	best, bestLen := -1, 0
	for slot, q := range p.queues {
		if slot == thief {
			continue
		}
		if len(q) > bestLen {
			best, bestLen = slot, len(q)
		}
	}
	return best
}

// runLoop is one delivery runner for one worker slot: pop (or steal) a
// cell, deliver it over the control socket, repeat.
func (p *Pool) runLoop(ctx context.Context, w *worker) {
	defer p.wg.Done()
	for {
		c, ok := p.next(w)
		if !ok {
			return
		}
		if c == nil {
			select {
			case <-ctx.Done():
				return
			case <-w.wake:
			}
			continue
		}
		p.deliver(w, c)
		p.mu.Lock()
		p.inflight[w.slot]--
		p.mu.Unlock()
	}
}

// deliver runs one cell on worker w and routes the outcome: any answer
// but 503 finishes the cell; no answer (a transport failure, a budget
// kill, a 503) re-queues it until dispatchAttempts is spent, after
// which the fallback completes it.
func (p *Pool) deliver(w *worker, c *cell) {
	if c.ctx.Err() != nil {
		c.finish(nil, c.ctx.Err())
		return
	}
	dctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	// The pool closing must abort an in-flight delivery even though the
	// delivery runs on the caller's ctx.
	stop := context.AfterFunc(p.ctx, cancel)
	defer stop()
	if p.cfg.CellBudget > 0 {
		var bcancel context.CancelFunc
		dctx, bcancel = context.WithTimeout(dctx, p.cfg.CellBudget)
		defer bcancel()
	}
	st, err := w.client.Run(dctx, c.bench, c.cfg)
	if err == nil {
		w.cells.Add(1)
		c.finish(st, nil)
		return
	}
	var answer *server.StatusError
	if errors.As(err, &answer) && answer.Code != http.StatusServiceUnavailable {
		c.finish(nil, err)
		return
	}
	if c.ctx.Err() != nil {
		c.finish(nil, c.ctx.Err())
		return
	}
	if p.ctx.Err() != nil {
		c.finish(nil, ErrPoolClosed)
		return
	}
	if errors.Is(dctx.Err(), context.DeadlineExceeded) {
		// The worker sat on this cell past its wall-clock budget: presume
		// it wedged (deadlock, livelock) and recycle the process. The
		// respawned worker re-primes from its own journal segment, so
		// everything it finished before wedging survives. Marking the
		// slot dead here (rather than waiting for the supervisor's
		// waitpid) stops dispatch to the doomed process immediately.
		p.cfg.Log.Printf("fleet: %s exceeded %v on %s/%s; recycling worker",
			w.id, p.cfg.CellBudget, c.bench, c.cfg.Name())
		select {
		case w.killReq <- struct{}{}:
		default:
		}
		p.markDead(w)
	}
	c.attempts++
	if c.attempts >= dispatchAttempts {
		p.cfg.Log.Printf("fleet: cell %s/%s out of dispatch attempts (%d), completing in-process: %v",
			c.bench, c.cfg.Name(), c.attempts, err)
		p.asyncFallback(c)
		return
	}
	// Pace the re-dispatch: a dying worker fails deliveries with
	// connection errors faster than the supervisor can observe the
	// death, and an unpaced retry loop would burn every dispatch
	// attempt in microseconds.
	if !p.pause(c.ctx, p.cfg.Restart.Backoff(c.attempts)) {
		c.finish(nil, c.ctx.Err())
		return
	}
	p.requeue(c)
}

// pause waits d out; false means the cell's own ctx died. Pool
// shutdown cuts the wait short so requeue can observe closed.
func (p *Pool) pause(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-p.ctx.Done():
		return true
	case <-t.C:
		return true
	}
}

// asyncFallback completes a cell through the in-process path without
// tying up the calling delivery runner.
func (p *Pool) asyncFallback(c *cell) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.runFallback(c)
	}()
}

// runFallback executes one cell via Config.Fallback, bounded by the
// fallback semaphore.
func (p *Pool) runFallback(c *cell) {
	if err := p.fbSem.Acquire(c.ctx); err != nil {
		c.finish(nil, err)
		return
	}
	defer p.fbSem.Release()
	p.fallbackCells.Add(1)
	c.finish(p.cfg.Fallback(c.ctx, c.bench, c.cfg))
}

// degradeWatch flips the pool into degraded mode once the whole fleet
// has been down for DegradeAfter, draining the pending backlog through
// the fallback. Recovery (markAlive) clears the flag.
func (p *Pool) degradeWatch(ctx context.Context) {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.DegradeAfter / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		p.mu.Lock()
		if p.closed || p.aliveCount > 0 || p.degraded ||
			time.Since(p.downSince) < p.cfg.DegradeAfter {
			p.mu.Unlock()
			continue
		}
		p.degraded = true
		drain := p.pending
		p.pending = nil
		p.mu.Unlock()
		p.cfg.Log.Printf("fleet: no live workers for %v; degrading to in-process execution (%d pending cells)",
			p.cfg.DegradeAfter, len(drain))
		for _, c := range drain {
			p.asyncFallback(c)
		}
	}
}

// markAlive records a worker as ready: its slot rejoins dispatch, the
// degraded flag clears, and any pending backlog lands on its queue.
func (p *Pool) markAlive(w *worker) {
	p.mu.Lock()
	wasDegraded := p.degraded
	p.alive[w.slot] = true
	p.aliveCount++
	p.degraded = false
	p.downSince = time.Time{}
	if len(p.pending) > 0 {
		p.queues[w.slot] = append(p.queues[w.slot], p.pending...)
		p.pending = nil
	}
	p.wakeAll()
	p.mu.Unlock()
	if wasDegraded {
		p.cfg.Log.Printf("fleet: %s ready; leaving degraded mode", w.id)
	}
}

// markDead removes a worker from dispatch and redistributes its
// backlog. In-flight cells need no action here: their delivery runners
// observe the transport failure and re-queue them.
func (p *Pool) markDead(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.alive[w.slot] {
		return
	}
	p.alive[w.slot] = false
	p.aliveCount--
	if p.aliveCount == 0 {
		p.downSince = time.Now()
	}
	orphans := p.queues[w.slot]
	p.queues[w.slot] = nil
	for _, c := range orphans {
		if p.aliveCount > 0 {
			slot := p.leastLoadedLocked()
			p.queues[slot] = append(p.queues[slot], c)
		} else {
			p.pending = append(p.pending, c)
		}
	}
	p.wakeAll()
}

// Close tears the fleet down: workers get SIGTERM then SIGKILL (via
// supervisor ctx cancellation), queued and pending cells fail with
// ErrPoolClosed, and Close blocks until every goroutine is gone.
func (p *Pool) Close() error {
	p.cancel()
	p.mu.Lock()
	p.closed = true
	var orphans []*cell
	orphans = append(orphans, p.pending...)
	p.pending = nil
	for slot := range p.queues {
		orphans = append(orphans, p.queues[slot]...)
		p.queues[slot] = nil
	}
	p.wakeAll()
	p.mu.Unlock()
	for _, c := range orphans {
		c.finish(nil, ErrPoolClosed)
	}
	p.wg.Wait()
	return nil
}

// Report is the fleet's health snapshot. It is an alias kept for the
// out-of-module benchmark harness (perfbench), which names it; the
// type itself is server.FleetReport, part of the /v1/metrics contract.
type Report = server.FleetReport

// Report snapshots the fleet.
func (p *Pool) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := Report{
		Procs:         p.cfg.Procs,
		Alive:         p.aliveCount,
		Degraded:      p.degraded,
		Pending:       len(p.pending),
		FallbackCells: p.fallbackCells.Load(),
	}
	for _, w := range p.workers {
		r.Workers = append(r.Workers, server.WorkerStatus{
			ID:              w.id,
			PID:             int(w.pid.Load()),
			Alive:           p.alive[w.slot],
			QueueDepth:      len(p.queues[w.slot]),
			Inflight:        p.inflight[w.slot],
			Cells:           w.cells.Load(),
			Steals:          w.steals.Load(),
			Restarts:        w.restarts.Load(),
			HeartbeatMisses: w.hbMisses.Load(),
		})
	}
	return r
}

// Degraded reports whether the pool is currently executing in-process.
func (p *Pool) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// ---- worker process supervision ----

// supervise owns one slot's process lifecycle: spawn, wait for
// readiness, monitor heartbeats until death (waitpid), back off,
// respawn. It never abandons the slot — the backoff saturates at
// Restart.MaxDelay — so a long outage degrades the pool (degradeWatch)
// instead of silently shrinking it.
func (p *Pool) supervise(ctx context.Context, w *worker) {
	defer p.wg.Done()
	attempt := 0
	everReady := false
	for ctx.Err() == nil {
		cmd, err := p.spawn(w)
		if err != nil {
			p.cfg.Log.Printf("fleet: spawning %s: %v", w.id, err)
			attempt++
			if !p.backoff(ctx, attempt) {
				return
			}
			continue
		}
		exited := make(chan error, 1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			exited <- cmd.Wait() //md:ctxok cap-1 channel, single send
		}()
		ready, exitedEarly := p.waitReady(ctx, w, exited)
		if !ready {
			if !exitedEarly {
				_ = cmd.Process.Kill()
				<-exited //md:ctxok child was just SIGKILLed; Wait returns promptly
			}
			if ctx.Err() != nil {
				return
			}
			attempt++
			if !p.backoff(ctx, attempt) {
				return
			}
			continue
		}
		attempt = 0
		if everReady {
			w.restarts.Add(1)
		}
		everReady = true
		p.markAlive(w)
		p.monitor(ctx, w, cmd, exited)
		p.markDead(w)
		if ctx.Err() != nil {
			return
		}
		attempt++
		if !p.backoff(ctx, attempt) {
			return
		}
	}
}

// backoff waits out the restart delay; false means ctx died.
func (p *Pool) backoff(ctx context.Context, attempt int) bool {
	if attempt > p.cfg.Restart.MaxAttempts {
		attempt = p.cfg.Restart.MaxAttempts // saturate the delay, never give up
	}
	t := time.NewTimer(p.cfg.Restart.Backoff(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// spawn forks one worker process.
func (p *Pool) spawn(w *worker) (*exec.Cmd, error) {
	if err := faultinject.PointErr(faultinject.SiteWorkerSpawn); err != nil {
		return nil, err
	}
	// A leftover socket from the previous incarnation would make the new
	// listener fail with EADDRINUSE.
	_ = os.Remove(w.socket)
	cmd := exec.Command(p.cfg.Exec, p.cfg.Args(w.slot, w.socket)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = sysProcAttr() // Pdeathsig on linux: no orphans if the supervisor dies
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w.pid.Store(int64(cmd.Process.Pid))
	p.cfg.Log.Printf("fleet: spawned %s (pid %d)", w.id, cmd.Process.Pid)
	return cmd, nil
}

// waitReady runs the worker's Client.Check (reachable, same
// provenance tuple) until it passes, the worker exits, or spawnTimeout
// expires. exitedEarly reports that the exited channel was consumed
// (the caller must not wait on it again).
func (p *Pool) waitReady(ctx context.Context, w *worker, exited <-chan error) (ready, exitedEarly bool) {
	deadline := time.NewTimer(spawnTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	var checkErr error
	for {
		select {
		case <-ctx.Done():
			return false, false
		case err := <-exited:
			p.cfg.Log.Printf("fleet: %s exited before ready: %v", w.id, err)
			return false, true
		case <-deadline.C:
			p.cfg.Log.Printf("fleet: %s (pid %d) not ready within %v: %v", w.id, w.pid.Load(), spawnTimeout, checkErr)
			return false, false
		case <-tick.C:
			pctx, cancel := context.WithTimeout(ctx, time.Second)
			checkErr = w.client.Check(pctx)
			cancel()
			if checkErr == nil {
				return true, false
			}
		}
	}
}

// monitor watches a ready worker until it dies: waitpid, the
// supervisor's heartbeat probes, kill requests from delivery runners
// (budget kills), and pool shutdown all converge here.
func (p *Pool) monitor(ctx context.Context, w *worker, cmd *exec.Cmd, exited <-chan error) {
	hb := time.NewTicker(p.cfg.HeartbeatEvery)
	defer hb.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			// Graceful drain: SIGTERM, a bounded grace period, then SIGKILL.
			_ = cmd.Process.Signal(termSignal())
			grace := time.NewTimer(spawnTimeout)
			defer grace.Stop()
			select {
			case <-exited: //md:ctxok the pool is already shutting down; this IS the ctx.Done path
			case <-grace.C: //md:ctxok bounded by the grace timer itself
				_ = cmd.Process.Kill()
				<-exited //md:ctxok child was just SIGKILLed; Wait returns promptly
			}
			return
		case err := <-exited:
			p.cfg.Log.Printf("fleet: %s (pid %d) exited: %v", w.id, cmd.Process.Pid, err)
			return
		case <-w.killReq:
			_ = cmd.Process.Kill()
		case <-hb.C:
			if err := p.heartbeat(ctx, w); err != nil {
				misses++
				w.hbMisses.Add(1)
				if misses >= heartbeatMisses {
					p.cfg.Log.Printf("fleet: %s missed %d heartbeats (%v); killing", w.id, misses, err)
					_ = cmd.Process.Kill()
				}
			} else {
				misses = 0
			}
		}
	}
}

// heartbeat is one supervisor liveness probe.
func (p *Pool) heartbeat(ctx context.Context, w *worker) error {
	if err := faultinject.PointErr(faultinject.SiteWorkerHeartbeat); err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, p.cfg.HeartbeatEvery)
	defer cancel()
	return w.client.Check(pctx)
}
