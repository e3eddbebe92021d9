// Package experiments reproduces every table and figure of the paper's
// evaluation (§3) over the synthetic SPEC'95-analog suite, plus the §4
// summary averages and a set of ablation studies. Each experiment
// returns typed rows and has a paper-style text renderer; cmd/mdexp and
// the repository's benchmarks drive them.
//
// The Runner at the center of the package is an instrumented execution
// layer: it memoizes (benchmark, configuration) simulations with
// singleflight semantics, honors context cancellation, aggregates every
// job failure of a sweep instead of dropping all but one, records
// per-run provenance (config name and hash, instruction budget, wall
// time) for the artifact layer, and exposes progress hooks plus atomic
// counters for live observability.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/faultinject"
	"mdspec/internal/parsim"
	"mdspec/internal/prog"
	"mdspec/internal/retry"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Insts is the number of committed instructions simulated per
	// (benchmark, configuration) pair.
	Insts int64
	// Benchmarks restricts the suite (default: all 18 of Table 1).
	Benchmarks []string
	// Parallel bounds concurrent simulations (default: GOMAXPROCS).
	// Sampled runs draw their segment workers from the same budget, so a
	// sweep never oversubscribes it.
	Parallel int
	// Sampled switches every simulation from full timing to the paper's
	// sampled methodology (§3.1), executed interval-parallel: Insts
	// becomes the committed-instruction budget summed over the timing
	// windows. Split-window configurations do not support sampling and
	// fall back to full timing runs.
	Sampled bool
	// TimingWindow and FunctionalWindow size one sampling period when
	// Sampled is set (defaults 5_000 and 2*TimingWindow — the paper's 1:2
	// timing:functional ratio).
	TimingWindow     int64
	FunctionalWindow int64
	// PhaseSampled narrows a sampled sweep to phase-representative
	// segments: each benchmark's segments are summarized by basic-block
	// vectors, clustered into Phases groups with deterministic seeded
	// k-means, and only one representative per cluster is simulated, its
	// statistics weighted by the cluster population (SimPoint-style).
	// Requires Sampled; full-timing and split-window cells are
	// unaffected.
	PhaseSampled bool
	// Phases is the phase cluster count (default DefaultPhases). It
	// bounds, not fixes, how many segments per benchmark are simulated —
	// benchmarks with fewer segments than Phases run them all.
	Phases int
	// Retry bounds how often a cell whose simulation fails transiently
	// (worker panic, watchdog deadlock report) is re-attempted before
	// the sweep degrades. The zero value selects retry.Default; the
	// budget is counted in attempts, and the backoff schedule is a pure
	// function of the attempt number.
	Retry retry.Policy
	// RecordingDir, when set, caches each benchmark's columnar recording
	// on disk (<bench>.mdrec): a valid file is mmapped read-only, so
	// concurrent sweep processes share one physical copy per benchmark
	// through the page cache; a missing or damaged file is re-captured
	// and rewritten atomically. Unset keeps recordings in memory.
	RecordingDir string
	// Journal, when set, is the sweep's crash-safe checkpoint store:
	// every completed run is appended (and fsynced) as it finishes, and
	// cells primed from a replayed journal are served from the memo
	// cache without re-simulation. Open one with OpenJournalSegment and
	// seed the runner with Prime.
	Journal *Journal
	// Hooks receives progress callbacks (all fields optional).
	Hooks Hooks
}

// DefaultOptions runs the full suite at a laptop-friendly budget.
func DefaultOptions() Options {
	return Options{Insts: 150_000}
}

// DefaultPhases is the default phase cluster count for PhaseSampled
// sweeps.
const DefaultPhases = 8

// phaseSeed fixes the k-means initialization so phase plans — and the
// sweep results built on them — are reproducible across processes.
const phaseSeed = 0x6d647370

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) timingWindow() int64 {
	if o.TimingWindow > 0 {
		return o.TimingWindow
	}
	return 5_000
}

func (o Options) functionalWindow() int64 {
	if o.FunctionalWindow > 0 {
		return o.FunctionalWindow
	}
	return 2 * o.timingWindow()
}

func (o Options) phases() int {
	if o.Phases > 0 {
		return o.Phases
	}
	return DefaultPhases
}

// checkpointSeqs is the warm-state checkpoint schedule these options
// induce: one frame at each interval-parallel segment's warm-up start,
// so a resumed segment fast-forwards zero residue. parsim defaults the
// warm-up length to the timing window.
func (o Options) checkpointSeqs() []int64 {
	return ckpt.Positions(o.Insts, o.timingWindow(), o.functionalWindow(),
		parsim.DefaultSegmentPeriods, o.timingWindow())
}

// Hooks are optional progress callbacks a Runner invokes around each
// simulation. Callbacks may fire concurrently from sweep workers and
// must be safe for concurrent use. Configuration identity is passed as
// the paper-style name (e.g. "NAS/SYNC").
type Hooks struct {
	// JobStarted fires when a simulation actually begins (cache misses
	// only; deduplicated and memoized calls never start a job).
	JobStarted func(bench, cfg string)
	// JobFinished fires when a simulation completes, with its wall time
	// and error (nil on success).
	JobFinished func(bench, cfg string, d time.Duration, err error)
	// CacheHit fires when a Run call is satisfied from the memo cache or
	// joins an in-flight duplicate simulation.
	CacheHit func(bench, cfg string)
	// JobRetried fires when a transiently-failed simulation is about to
	// be re-attempted; attempt is the 1-based attempt that just failed
	// with err.
	JobRetried func(bench, cfg string, attempt int, err error)
}

// Counters is a snapshot of a Runner's lifetime metrics.
type Counters struct {
	JobsStarted  int64 `json:"jobs_started"`
	JobsFinished int64 `json:"jobs_finished"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsRetried  int64 `json:"jobs_retried"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	// Replayed counts cells served from a resumed journal instead of
	// being re-simulated.
	Replayed int64 `json:"replayed"`
	// RecordingHits/Misses/Bytes track the on-disk recording cache
	// (RecordingDir): a hit reuses an existing .mdrec file, a miss
	// captures and rewrites it, and bytes counts data served from or
	// published to disk.
	RecordingHits   int64 `json:"recording_hits"`
	RecordingMisses int64 `json:"recording_misses"`
	RecordingBytes  int64 `json:"recording_bytes"`
	// CheckpointHits/Misses/Bytes track the warmed-state checkpoint
	// cache the same way: a hit reopens a valid .mdckpt file, a miss
	// re-captures the warm state with a functional pass (and rewrites
	// the file when RecordingDir is set).
	CheckpointHits   int64 `json:"checkpoint_hits"`
	CheckpointMisses int64 `json:"checkpoint_misses"`
	CheckpointBytes  int64 `json:"checkpoint_bytes"`
	// SimSeconds is the summed wall time of all finished simulations
	// (CPU-parallel, so it exceeds elapsed time on multicore sweeps).
	SimSeconds float64 `json:"sim_seconds"`
}

// Runner executes and memoizes simulations: most experiments share
// baseline configurations, so each (benchmark, config) pair runs once,
// even under concurrent callers (singleflight). Every memo — cells and
// the programs, recordings, checkpoint sets and phase plans they are
// built from — is a flight table, so no build runs under a lock.
type Runner struct {
	opt Options

	cells flight[runKey, RunRecord]
	progs flight[string, *prog.Program]
	recs  flight[string, emu.ReplaySource]
	ckpts flight[ckptKey, *ckpt.Set]
	plans flight[string, []ckpt.WeightedSegment]

	mu         sync.Mutex
	records    []RunRecord            //md:guardedby mu
	primed     map[runKeyID]RunRecord //md:guardedby mu
	abandoned  []AbandonedCell        //md:guardedby mu
	journalErr error                  //md:guardedby mu

	jobsStarted  atomic.Int64
	jobsFinished atomic.Int64
	jobsFailed   atomic.Int64
	jobsRetried  atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	replayed     atomic.Int64
	recHits      atomic.Int64
	recMisses    atomic.Int64
	recBytes     atomic.Int64
	ckptHits     atomic.Int64
	ckptMisses   atomic.Int64
	ckptBytes    atomic.Int64
	simNanos     atomic.Int64

	// sem is the runner's parallelism budget, shared between sweep jobs
	// and (for sampled runs) each job's interval-parallel segment
	// workers: a job holds one token while it simulates, and parsim takes
	// extra tokens only when they are free, so the two levels together
	// never exceed Options.Parallel.
	sem parsim.Sem

	// sim is the simulation implementation; tests substitute stubs to
	// exercise singleflight, cancellation and error aggregation without
	// paying for real simulations. simFallback is the graceful-degradation
	// backend: the single-worker sampled run a cell falls back to when the
	// primary engine keeps failing transiently.
	sim         func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error)
	simFallback func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error)

	// sleep waits out a retry backoff (tests substitute an instant
	// stub); the schedule itself is deterministic, see internal/retry.
	sleep func(ctx context.Context, d time.Duration) error
}

type runKey struct {
	bench string
	cfg   config.Machine
}

// ckptKey identifies one warmed-state checkpoint set: functional
// warming sees only the warm configuration class, so every policy
// ablation of a sweep shares one set per benchmark.
type ckptKey struct {
	bench string
	warm  ckpt.WarmConfig
}

// NewRunner returns a Runner with the given options.
func NewRunner(opt Options) *Runner {
	if opt.Insts <= 0 {
		opt.Insts = DefaultOptions().Insts
	}
	r := &Runner{
		opt:    opt,
		primed: make(map[runKeyID]RunRecord),
		sem:    parsim.NewSem(opt.parallel()),
	}
	r.sim = r.simulate
	r.simFallback = r.simulateSingleWorker
	r.sleep = func(ctx context.Context, d time.Duration) error {
		if d <= 0 {
			return ctx.Err()
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return r
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opt }

// Counters returns a snapshot of the runner's lifetime metrics.
func (r *Runner) Counters() Counters {
	return Counters{
		JobsStarted:      r.jobsStarted.Load(),
		JobsFinished:     r.jobsFinished.Load(),
		JobsFailed:       r.jobsFailed.Load(),
		JobsRetried:      r.jobsRetried.Load(),
		CacheHits:        r.cacheHits.Load(),
		CacheMisses:      r.cacheMisses.Load(),
		Replayed:         r.replayed.Load(),
		RecordingHits:    r.recHits.Load(),
		RecordingMisses:  r.recMisses.Load(),
		RecordingBytes:   r.recBytes.Load(),
		CheckpointHits:   r.ckptHits.Load(),
		CheckpointMisses: r.ckptMisses.Load(),
		CheckpointBytes:  r.ckptBytes.Load(),
		SimSeconds:       time.Duration(r.simNanos.Load()).Seconds(),
	}
}

// Abandoned returns a copy of the cells this runner gave up on after
// exhausting retries (and, for sampled cells, the single-worker
// fallback) and has not completed since. They are the partial-results
// envelope's "what is missing" list.
func (r *Runner) Abandoned() []AbandonedCell {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AbandonedCell(nil), r.abandoned...)
}

// JournalErr reports the first journal-append failure, if any. A
// failing journal degrades the sweep's resumability, never the sweep
// itself, so the error is surfaced here instead of failing Run.
func (r *Runner) JournalErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journalErr
}

// Prime seeds the memo cache with runs replayed from a journal: a
// primed cell is served without re-simulation, appears in Records (with
// its original provenance), and is not re-journaled. Entries from a
// different runner version or instruction budget are skipped — they
// belong to a sweep whose cells are not this sweep's cells. Returns how
// many records were accepted.
func (r *Runner) Prime(recs []RunRecord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rec := range recs {
		if rec.Runner != RunnerVersion || rec.Insts != r.opt.Insts || rec.Stats == nil {
			continue
		}
		r.primed[runKeyID{rec.Bench, rec.ConfigHash}] = rec
		n++
	}
	return n
}

// Records returns a copy of the provenance records of every simulation
// this runner has executed (cache hits do not add records).
func (r *Runner) Records() []RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RunRecord(nil), r.records...)
}

func (r *Runner) program(ctx context.Context, bench string) (*prog.Program, error) {
	p, _, err := r.progs.do(ctx, bench, func() (*prog.Program, error) {
		return workload.Build(bench)
	})
	return p, err
}

// recording returns the shared dynamic-instruction replay source for
// bench, creating it on first use. Every configuration of a sweep
// replays the same recording, so the architectural stream is emulated
// exactly once per benchmark regardless of how many configurations run
// over it. With RecordingDir set, the recording additionally persists
// across processes as an mmapped column file.
func (r *Runner) recording(ctx context.Context, bench string) (emu.ReplaySource, error) {
	src, _, err := r.recs.do(ctx, bench, func() (emu.ReplaySource, error) {
		p, err := r.program(ctx, bench)
		if err != nil {
			return nil, err
		}
		if r.opt.RecordingDir != "" {
			return r.fileRecording(bench, p), nil
		}
		return emu.NewRecording(emu.New(p)), nil
	})
	return src, err
}

// fileRecording serves bench from the RecordingDir cache: an existing
// valid file is mmapped; otherwise the program is captured once, the
// file written atomically (temp + rename, safe against concurrent
// writers and crashes), and reopened mapped. Every failure path falls
// back to a live in-memory recording — the disk cache is an
// optimization, never a correctness dependency.
func (r *Runner) fileRecording(bench string, p *prog.Program) emu.ReplaySource {
	path := filepath.Join(r.opt.RecordingDir, bench+".mdrec")
	if f, err := emu.OpenRecordingFile(path, p); err == nil {
		r.recHits.Add(1)
		r.recBytes.Add(f.SizeBytes())
		return f
	}
	r.recMisses.Add(1)
	rec := emu.NewRecording(emu.New(p))
	rec.Record(r.opt.captureHorizon())
	if err := writeRecordingFile(path, rec); err != nil {
		return rec
	}
	if f, err := emu.OpenRecordingFile(path, p); err == nil {
		r.recBytes.Add(f.SizeBytes())
		return f
	}
	return rec
}

// captureHorizon bounds the stream prefix any simulation under these
// options can touch, so a sealed recording file covers every replay. A
// full timing run consumes Insts committed instructions plus the
// window's fetch-ahead; a sampled run additionally streams through the
// functional windows between timing windows. The pad covers warmup,
// the largest window ablation, and squash refetch slack.
func (o Options) captureHorizon() int64 {
	h := o.Insts
	if o.Sampled {
		tw, fw := o.timingWindow(), o.functionalWindow()
		periods := (o.Insts + tw - 1) / tw
		h = periods * (tw + fw)
	}
	return h + 1<<17
}

// writeRecordingFile publishes a completed recording at path via a
// same-directory temp file and an atomic rename.
func writeRecordingFile(path string, rec *emu.Recording) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := rec.WriteSealedTo(tmp); err != nil {
		tmp.Close() //md:errok cleanup on an already-failing write; the temp file is removed, not published
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //md:errok cleanup on an already-failing sync; the temp file is removed, not published
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Close releases resources held by the runner's replay sources (mmapped
// recording files). The runner must be idle.
func (r *Runner) Close() error {
	var firstErr error
	for _, src := range r.recs.drain() {
		if f, ok := src.(*emu.FileRecording); ok {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// checkpointSet returns the warmed-state checkpoint set for bench
// under cfg's warm configuration class, building it at most once per
// (bench, class) even under concurrent callers (the build costs one
// functional pass). A nil result means checkpointing is unavailable
// for these options; callers proceed without it — checkpoints are an
// optimization, never a correctness dependency.
func (r *Runner) checkpointSet(ctx context.Context, bench string, cfg config.Machine) *ckpt.Set {
	s, _, _ := r.ckpts.do(ctx, ckptKey{bench, ckpt.WarmConfigOf(cfg)}, func() (*ckpt.Set, error) {
		return r.buildCheckpointSet(ctx, bench, cfg)
	})
	return s
}

// buildCheckpointSet opens, validates, or re-captures one checkpoint
// set. With RecordingDir set the set persists as
// <bench>-<warmhash>.mdckpt next to the benchmark's recording, shared
// by concurrent mdserve workers and resumed mdexp sweeps; a corrupt,
// mismatched, or stale file is silently re-captured and rewritten.
// Every capture failure degrades to a smaller or nil set; only a
// missing recording is an error, so the next caller tries again.
func (r *Runner) buildCheckpointSet(ctx context.Context, bench string, cfg config.Machine) (*ckpt.Set, error) {
	seqs := r.opt.checkpointSeqs()
	if len(seqs) == 0 {
		return nil, nil // single-segment decomposition: nothing to resume
	}
	rec, err := r.recording(ctx, bench)
	if err != nil {
		return nil, err
	}
	p, err := r.program(ctx, bench)
	if err != nil {
		return nil, err
	}
	recFP := emu.ProgramFingerprint(p)
	warm := ckpt.WarmConfigOf(cfg)

	path := ""
	if r.opt.RecordingDir != "" {
		path = filepath.Join(r.opt.RecordingDir,
			fmt.Sprintf("%s-%016x.mdckpt", bench, warm.Hash()))
		s, err := ckpt.OpenFile(path, recFP, warm.Hash())
		if err == nil && !staleSeqs(s.Seqs(), seqs) {
			r.ckptHits.Add(1)
			r.ckptBytes.Add(s.SizeBytes())
			return s, nil
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			// Torn, corrupt, or foreign file: drop it before re-capture so
			// a failed rewrite cannot leave the damaged bytes in place.
			os.Remove(path) //md:errok re-capture below rewrites or works in memory
		}
	}
	r.ckptMisses.Add(1)
	s, err := ckpt.Build(cfg, rec, recFP, seqs)
	if err != nil {
		return nil, nil
	}
	if path != "" && len(s.Frames) > 0 {
		if err := s.WriteFile(path); err == nil {
			r.ckptBytes.Add(s.SizeBytes())
		}
	}
	return s, nil
}

// staleSeqs reports whether an on-disk checkpoint schedule no longer
// matches the sweep's. A file whose frames are a non-empty prefix of
// the desired positions is accepted — a trace shorter than the capture
// horizon truncates the tail identically on rebuild — while a file
// from a different window geometry is re-captured.
func staleSeqs(got, want []int64) bool {
	if len(got) == 0 || len(got) > len(want) {
		return true
	}
	for i, s := range got {
		if s != want[i] {
			return true
		}
	}
	return false
}

// phasePlan returns bench's phase-representative segment selection,
// computed at most once per benchmark (one streaming BBV pass plus
// k-means). A nil plan means every segment is simulated unweighted.
func (r *Runner) phasePlan(ctx context.Context, bench string) ([]ckpt.WeightedSegment, error) {
	plan, _, err := r.plans.do(ctx, bench, func() ([]ckpt.WeightedSegment, error) {
		return r.buildPhasePlan(ctx, bench)
	})
	return plan, err
}

// buildPhasePlan computes per-segment basic-block vectors over the
// sweep's sampling horizon and clusters them into the configured
// number of phases. The segment size mirrors parsim's decomposition
// exactly, so plan indices are parsim segment indices.
func (r *Runner) buildPhasePlan(ctx context.Context, bench string) ([]ckpt.WeightedSegment, error) {
	rec, err := r.recording(ctx, bench)
	if err != nil {
		return nil, err
	}
	tw, fw := r.opt.timingWindow(), r.opt.functionalWindow()
	periods := (r.opt.Insts + tw - 1) / tw
	segInsts := parsim.DefaultSegmentPeriods * (tw + fw)
	vecs, err := ckpt.SegmentBBVs(rec, periods*(tw+fw), segInsts, ckpt.BBVDims)
	if err != nil || len(vecs) < 2 {
		return nil, nil
	}
	return ckpt.Plan(vecs, r.opt.phases(), phaseSeed), nil
}

// simulate is the real simulation backend behind Run. With
// Options.Sampled it runs the interval-parallel sampled engine, whose
// segment workers borrow spare tokens from the runner's own parallelism
// budget (split-window machines fall back to a full timing run —
// sampling needs a continuous window).
func (r *Runner) simulate(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	return r.simulateWith(ctx, bench, cfg, false)
}

// simulateSingleWorker is the graceful-degradation backend for sampled
// cells: the same sampled decomposition and phase selection as
// simulate, run by one worker with no shared semaphore and no
// checkpoints — none of the concurrency or warm-state machinery that
// kept failing. Segment results do not depend on the worker count or
// on checkpoint use, so its statistics are bit-identical to the
// primary engine's; it is only slower.
func (r *Runner) simulateSingleWorker(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	return r.simulateWith(ctx, bench, cfg, true)
}

func (r *Runner) simulateWith(ctx context.Context, bench string, cfg config.Machine, singleWorker bool) (*stats.Run, error) {
	rec, err := r.recording(ctx, bench)
	if err != nil {
		return nil, err
	}
	var res *stats.Run
	if r.opt.Sampled && !cfg.SplitWindow {
		popt := parsim.Options{
			TotalTiming:     r.opt.Insts,
			TimingInsts:     r.opt.timingWindow(),
			FunctionalInsts: r.opt.functionalWindow(),
		}
		if singleWorker {
			popt.Workers = 1
		} else {
			popt.Sem = r.sem
			popt.Checkpoints = r.checkpointSet(ctx, bench, cfg)
		}
		if r.opt.PhaseSampled {
			if popt.Select, err = r.phasePlan(ctx, bench); err != nil {
				return nil, err
			}
		}
		if res, err = parsim.Run(ctx, cfg, rec, popt); err != nil {
			return nil, err
		}
	} else {
		pl, err := core.New(cfg, rec.NewReplay())
		if err != nil {
			return nil, err
		}
		if res, err = pl.Run(r.opt.Insts); err != nil {
			return nil, err
		}
	}
	res.Workload = bench
	return res, nil
}

// RunPanicError is a panic during one cell's simulation, converted into
// an error carrying the job's identity and the panicking goroutine's
// stack. It is classified as transient: the next attempt gets a fresh
// Pipeline over the shared recording.
type RunPanicError struct {
	Bench  string
	Config string
	Value  any
	Stack  []byte
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("panic simulating %s under %s: %v\n%s", e.Bench, e.Config, e.Value, e.Stack)
}

// transientError classifies failures worth retrying: a recovered panic
// (job- or segment-level) or a watchdog deadlock report. Context
// cancellation and plain errors (unknown benchmark, invalid config) are
// permanent.
func transientError(err error) bool {
	var jobPanic *RunPanicError
	var segPanic *parsim.PanicError
	var deadlock *core.DeadlockError
	return errors.As(err, &jobPanic) || errors.As(err, &segPanic) || errors.As(err, &deadlock)
}

// runProtected is one simulation attempt with panic isolation: a panic
// anywhere below (a worker bug, an injected fault) becomes a typed
// *RunPanicError instead of crashing the sweep and losing every other
// cell's work.
func (r *Runner) runProtected(ctx context.Context, bench string, cfg config.Machine, cfgName string, sim func(context.Context, string, config.Machine) (*stats.Run, error)) (res *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &RunPanicError{Bench: bench, Config: cfgName, Value: v, Stack: debug.Stack()}
		}
	}()
	// No-op unless built with -tags mdfault; see internal/faultinject.
	faultinject.Point(faultinject.SiteRunnerJob)
	return sim(ctx, bench, cfg)
}

// runWithRecovery drives one cell to a result, an exhausted-retries
// failure, or a degraded success: transient failures are re-attempted
// up to the retry policy's budget (with its deterministic capped
// exponential backoff between attempts), and a sampled cell whose
// primary runs keep failing falls back to one single-worker pass of the
// same sampled decomposition. It returns the attempts consumed and the
// fallback marker for the cell's provenance record.
func (r *Runner) runWithRecovery(ctx context.Context, bench string, cfg config.Machine, cfgName string) (res *stats.Run, attempts int, fallback string, err error) {
	pol := r.opt.Retry.WithDefaults()
	for {
		attempts++
		res, err = r.runProtected(ctx, bench, cfg, cfgName, r.sim)
		if err == nil || !transientError(err) {
			return res, attempts, "", err
		}
		if cerr := ctx.Err(); cerr != nil {
			// Canceled mid-attempt: the cell is unfinished, not abandoned —
			// report the cancellation, not the attempt's transient failure.
			return nil, attempts, "", cerr
		}
		if attempts >= pol.MaxAttempts {
			break
		}
		r.jobsRetried.Add(1)
		if r.opt.Hooks.JobRetried != nil {
			r.opt.Hooks.JobRetried(bench, cfgName, attempts, err)
		}
		if werr := r.sleep(ctx, pol.Backoff(attempts)); werr != nil {
			return nil, attempts, "", werr
		}
	}
	if r.opt.Sampled && !cfg.SplitWindow {
		attempts++
		fres, ferr := r.runProtected(ctx, bench, cfg, cfgName, r.simFallback)
		if ferr == nil {
			return fres, attempts, FallbackSingleWorker, nil
		}
		err = fmt.Errorf("%w (single-worker fallback also failed: %v)", err, ferr)
	}
	return nil, attempts, "", err
}

// RunSource reports where a simulation result came from, for service
// responses and dedup accounting.
type RunSource string

// Run result sources.
const (
	// SourceSimulated is a fresh simulation executed by this call.
	SourceSimulated RunSource = "simulated"
	// SourceCache is a result served from the memo cache.
	SourceCache RunSource = "cache"
	// SourceDedup is a call that joined an in-flight duplicate
	// simulation started by a concurrent caller (singleflight).
	SourceDedup RunSource = "dedup"
	// SourceJournal is a cell replayed from a primed checkpoint journal
	// without re-simulation.
	SourceJournal RunSource = "journal"
)

// Run simulates bench under cfg. Results are memoized, and concurrent
// calls for the same (bench, cfg) pair share a single simulation
// (singleflight). A canceled context aborts before starting new work;
// an already-running duplicate is abandoned (it completes and populates
// the cache for later callers). Errors are returned naming the
// offending (bench, config) pair and are not cached.
func (r *Runner) Run(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	res, _, err := r.RunWithSource(ctx, bench, cfg)
	return res, err
}

// RunWithSource is Run, additionally reporting whether the result was
// freshly simulated, served from the memo cache, deduplicated against
// an in-flight duplicate, or replayed from a primed journal. mdserve
// responses carry the source so clients can tell a cache hit from a
// paid simulation.
func (r *Runner) RunWithSource(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, RunSource, error) {
	rec, src, err := r.run(ctx, bench, cfg, false)
	return rec.Stats, src, err
}

// RunGuarded is Run behind the runner's parallelism budget, returning
// the cell's provenance record: the caller that simulates the cell
// holds one token of Options.Parallel while it does, and a call answered
// from the memo cache, a primed journal, or an in-flight duplicate
// takes none. It is the per-job step of the bounded sweep pool (runAll)
// and of the mdserve scheduler's workers, which must never let one
// queued request oversubscribe the shared simulation budget.
func (r *Runner) RunGuarded(ctx context.Context, bench string, cfg config.Machine) (RunRecord, RunSource, error) {
	return r.run(ctx, bench, cfg, true)
}

// run answers one cell request through the cell table. The build
// replays a primed journal record or simulates the cell — taking a
// parallelism token first when guarded — and journals a fresh result
// before any other caller can see it.
func (r *Runner) run(ctx context.Context, bench string, cfg config.Machine, guarded bool) (RunRecord, RunSource, error) {
	if err := ctx.Err(); err != nil {
		return RunRecord{}, "", err
	}
	src := SourceSimulated
	rec, how, err := r.cells.do(ctx, runKey{bench, cfg}, func() (RunRecord, error) {
		// Name() and Hash() render the Machine on every call, so a memo
		// hit computes neither (Name only for a CacheHit hook); a build
		// computes each once.
		id := runKeyID{bench, cfg.Hash()}
		if rec, ok := r.takePrimed(id); ok {
			src = SourceJournal
			return rec, nil
		}
		if guarded {
			if err := r.sem.Acquire(ctx); err != nil {
				return RunRecord{}, err
			}
			defer r.sem.Release()
		}
		return r.simulateCell(ctx, id, cfg, cfg.Name())
	})
	if err != nil {
		return RunRecord{}, "", err
	}
	switch {
	case how == flightMemo:
		src = SourceCache
		r.cacheHits.Add(1)
	case how == flightJoined:
		src = SourceDedup
		r.cacheHits.Add(1)
	case src == SourceJournal:
		r.replayed.Add(1)
	default:
		return rec, src, nil
	}
	if r.opt.Hooks.CacheHit != nil {
		r.opt.Hooks.CacheHit(bench, cfg.Name())
	}
	return rec, src, nil
}

// takePrimed claims the primed journal record of a cell, moving it into
// the provenance records: a replayed cell skips the simulation entirely
// (its stats are bit-identical to re-running by the determinism
// contract) and is not re-journaled.
func (r *Runner) takePrimed(id runKeyID) (RunRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.primed[id]
	if ok {
		delete(r.primed, id)
		r.records = append(r.records, rec)
	}
	return rec, ok
}

// simulateCell runs one cell to a record or a failure, counting it as a
// cache miss. A success is made durable in the journal before it is
// published; a failure other than cancellation names the cell in the
// abandoned list until a later attempt succeeds.
func (r *Runner) simulateCell(ctx context.Context, id runKeyID, cfg config.Machine, cfgName string) (RunRecord, error) {
	bench := id.bench
	r.cacheMisses.Add(1)
	r.jobsStarted.Add(1)
	if r.opt.Hooks.JobStarted != nil {
		r.opt.Hooks.JobStarted(bench, cfgName)
	}
	start := time.Now()
	res, attempts, fallback, err := r.runWithRecovery(ctx, bench, cfg, cfgName)
	wall := time.Since(start)
	if err != nil {
		err = fmt.Errorf("%s under %s: %w", bench, cfgName, err)
	}
	r.jobsFinished.Add(1)
	r.simNanos.Add(int64(wall))
	if err != nil {
		r.jobsFailed.Add(1)
	}
	if r.opt.Hooks.JobFinished != nil {
		r.opt.Hooks.JobFinished(bench, cfgName, wall, err)
	}

	isCell := func(c AbandonedCell) bool { return c.Bench == bench && c.ConfigHash == id.configHash }
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// The cell is abandoned (retries and any fallback exhausted, or
			// a permanent failure): name it so the partial-results envelope
			// can report exactly what is missing. Errors are not cached, so
			// a later Run of the same cell may retry it; keep one entry.
			r.mu.Lock()
			if !slices.ContainsFunc(r.abandoned, isCell) {
				r.abandoned = append(r.abandoned, AbandonedCell{
					Bench: bench, Config: cfgName, ConfigHash: id.configHash,
					Attempts: attempts, Error: err.Error(),
				})
			}
			r.mu.Unlock()
		}
		return RunRecord{}, err
	}
	rec := newRunRecord(bench, cfgName, id.configHash, r.opt.Insts, wall, res)
	rec.Attempts = attempts
	rec.Fallback = fallback
	var jerr error
	if r.opt.Journal != nil {
		// Make the finished cell durable before publishing it; a journal
		// failure costs resumability, not the sweep (see JournalErr).
		jerr = r.opt.Journal.Append(rec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if jerr != nil && r.journalErr == nil {
		r.journalErr = jerr
	}
	r.records = append(r.records, rec)
	r.abandoned = slices.DeleteFunc(r.abandoned, isCell)
	return rec, nil
}

// SimulateFunc is the signature of a simulation backend: it turns one
// (benchmark, configuration) cell into a statistics run.
type SimulateFunc func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error)

// UseBackend replaces the runner's simulation backend — both the
// primary engine and the sampled single-worker fallback — while keeping
// the memo cache, singleflight dedup, journal priming, hooks and
// counters in front of it. mdexp -server uses it to point experiments at a
// remote mdserve daemon instead of simulating locally. Call it before
// the first Run; it is not safe to swap backends mid-sweep.
func (r *Runner) UseBackend(sim SimulateFunc) {
	r.sim = sim
	r.simFallback = sim
}

// LocalSimulate runs one cell on this process's own simulation engine,
// ignoring any remote backend mounted with UseBackend. It is the fleet
// supervisor's graceful-degradation path: when every worker process is
// down, the pool falls back to in-process execution — today's
// single-process path — through this method, while the runner's memo
// cache, journal, and counters in front of the pool stay intact. A
// panic becomes a *RunPanicError, as in every other attempt: the
// supervisor must outlive the cell it runs in place of a worker.
func (r *Runner) LocalSimulate(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	return r.runProtected(ctx, bench, cfg, cfg.Name(), r.simulate)
}

// job is one (bench, config) simulation request.
type job struct {
	bench string
	cfg   config.Machine
}

// runAll executes all jobs with bounded parallelism: a fixed pool of
// at most Options.Parallel workers drains the job list, so a sweep of
// N cells costs O(parallel) goroutines instead of N (the same pool
// shape mdserve uses to absorb unbounded request streams). Unlike a
// first-error-wins sweep, it drains every job and returns the joined
// errors of all failures, each naming its (bench, config) pair. When
// ctx is canceled, jobs not yet running are abandoned and a single
// context error is reported alongside any real failures.
func (r *Runner) runAll(ctx context.Context, jobs []job) error {
	errs := make([]error, len(jobs))
	workers := r.opt.parallel()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				_, _, err := r.RunGuarded(ctx, jobs[i].bench, jobs[i].cfg)
				errs[i] = err
			}
		}()
	}
	// Submission is ctx-aware: once the sweep is canceled, stop feeding
	// the pool instead of blocking on workers that are themselves
	// unwinding; unsubmitted jobs keep their slot's nil error and the
	// single collapsed ctx.Err() below reports the cancellation.
	aborted := false
submit:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			aborted = true
			break submit
		}
	}
	close(idx)
	wg.Wait()

	var failures []error
	canceled := aborted
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded):
			canceled = true // collapse the cancellation storm into one error
		default:
			failures = append(failures, e)
		}
	}
	if canceled {
		failures = append(failures, ctx.Err())
	}
	return errors.Join(failures...)
}

// prefetch runs the cross product of benchmarks and configs in parallel
// so subsequent Run calls hit the memo.
func (r *Runner) prefetch(ctx context.Context, benches []string, cfgs ...config.Machine) error {
	jobs := make([]job, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for _, c := range cfgs {
			jobs = append(jobs, job{b, c})
		}
	}
	return r.runAll(ctx, jobs)
}

// means computes arithmetic means of a metric over the SPECint and
// SPECfp subsets of rows (keyed by benchmark name). Names that are in
// neither subset (misspellings that slipped past CLI validation) are
// skipped rather than silently classified as FP.
func meansByClass(benches []string, metric func(bench string) float64) (intMean, fpMean float64) {
	intSet := make(map[string]bool)
	for _, n := range workload.IntNames() {
		intSet[n] = true
	}
	fpSet := make(map[string]bool)
	for _, n := range workload.FPNames() {
		fpSet[n] = true
	}
	var iv, fv []float64
	for _, b := range benches {
		switch {
		case intSet[b]:
			iv = append(iv, metric(b))
		case fpSet[b]:
			fv = append(fv, metric(b))
		}
	}
	return stats.Mean(iv), stats.Mean(fv)
}
