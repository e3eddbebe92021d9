package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// minRequests is the fewest requests a sweep's timed phase answers.
const minRequests = 1000

// A run performs its workload's set-up at least setupRepeats times and
// until setupMinTotal has passed; setup_s is the median. sweep-full's
// set-up, the program builds alone, is short, so it is repeated many
// times.
const (
	setupRepeats  = 3
	setupMinTotal = 2 * time.Second
)

// parallelism is the Runner parallelism and caller count of the sweeps.
func parallelism() int { return min(callers, runtime.NumCPU()) }

// runnerOptions are the experiments.Options of a workload, as mdexp
// would set them from its flags.
func runnerOptions(w workloadSpec, recdir string) experiments.Options {
	opt := experiments.Options{Insts: w.insts, Parallel: parallelism(), RecordingDir: recdir}
	if w.sampled {
		opt.Sampled = true
		opt.TimingWindow, opt.FunctionalWindow = timingWindow, functionalWindow
		opt.PhaseSampled = true
		opt.Phases = phases
	}
	return opt
}

// sample is one answered request.
type sample struct {
	cell    int
	latency time.Duration
	source  experiments.RunSource
	// committed is the cell's committed instructions when this request
	// simulated it, else 0.
	committed int64
	failed    bool
}

// buildPrograms builds every benchmark program, as a sweep does before
// its first simulation.
func buildPrograms() error {
	for _, b := range workload.Names() {
		if _, err := workload.Build(b); err != nil {
			return err
		}
	}
	return nil
}

// sweepSetup performs one set-up of a sweep workload and returns the
// recording directory its timed phase uses ("" for in-memory
// recordings). sweep-sampled fills a fresh directory cold: one cell per
// benchmark through a Runner captures and encodes the recording and
// builds the checkpoint set.
func sweepSetup(ctx context.Context, e *env, w workloadSpec, cs cellSet, rep int) (string, error) {
	if err := buildPrograms(); err != nil {
		return "", err
	}
	if !w.sampled {
		return "", nil
	}
	dir := filepath.Join(e.work, fmt.Sprintf("recdir-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	first := map[string]int{}
	for i, c := range cs.cells {
		if _, ok := first[c.bench]; !ok {
			first[c.bench] = i
		}
	}
	var idx []int
	for _, b := range workload.Names() {
		if i, ok := first[b]; ok {
			idx = append(idx, i)
		}
	}
	r := experiments.NewRunner(runnerOptions(w, dir))
	defer r.Close()
	err := runCells(ctx, parallelism(), len(idx), func(i int) error {
		c := cs.cells[idx[i]]
		_, err := r.Run(ctx, c.bench, c.cfg)
		return err
	})
	return dir, err
}

// timedSetup runs setup at least setupRepeats times and until
// setupMinTotal has passed, keeping only the last result, and returns
// the durations.
func timedSetup(setup func(rep int) error) ([]float64, error) {
	var ds []float64
	var sum time.Duration
	for rep := 0; rep < setupRepeats || sum < setupMinTotal; rep++ {
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		sum += d
		ds = append(ds, d.Seconds())
	}
	return ds, nil
}

// sweepPass sends one request stream through a fresh Runner from
// parallelism() concurrent callers and checks every answer.
func sweepPass(ctx context.Context, e *env, w workloadSpec, cs cellSet, stream []int, recdir string, o *outcome, hooks experiments.Hooks) passResult {
	opt := runnerOptions(w, recdir)
	opt.Hooks = hooks
	r := experiments.NewRunner(opt)
	samples := make([]sample, len(stream))
	results := make([]*stats.Run, len(stream))
	// Start from a collected heap, as a fresh mdexp would, returned to
	// the OS, and reset the peak resident memory to what is left, so the
	// peak read at the end is this pass's.
	debug.FreeOSMemory()
	peakErr := resetPeakRSS()
	t0 := time.Now()
	_ = runCells(ctx, parallelism(), len(stream), func(i int) error { // failures are tallied per sample
		c := cs.cells[stream[i]]
		s := time.Now()
		res, src, err := r.RunWithSource(ctx, c.bench, c.cfg)
		samples[i] = sample{cell: stream[i], latency: time.Since(s), source: src, failed: err != nil}
		if err == nil && src == experiments.SourceSimulated {
			samples[i].committed = res.Committed
		}
		results[i] = res
		return nil
	})
	wall := time.Since(t0)
	peakMB := peakRSSMB(os.Getpid())
	if peakErr != nil {
		e.logf("%v", peakErr)
		peakMB = math.NaN() // fails the run as an unmeasured metric
	}
	counters := r.Counters()
	retainedMB := retainedRSSMB()
	if err := r.Close(); err != nil {
		e.logf("closing runner: %v", err)
	}
	byCell := map[int]*stats.Run{}
	for i, s := range samples {
		o.attempted++
		c := cs.cells[s.cell]
		if s.failed {
			o.fail("%s under %s: simulation failed", c.bench, c.cfg.Name())
			continue
		}
		if prev, ok := byCell[s.cell]; ok && prev == results[i] {
			continue // a memo hit returns the simulated run itself
		}
		byCell[s.cell] = results[i]
		e.golden.check(o, w.name, c, w.insts, results[i])
	}
	return passResult{samples, wall, counters, byCell, peakMB, retainedMB}
}

// passResult is one sweep pass: every request, the pass's wall time,
// its Runner's counters, each cell's statistics, the process's peak
// resident memory during the pass (NaN when it could not be measured),
// and the resident memory the Runner still held at its end.
type passResult struct {
	samples    []sample
	wall       time.Duration
	counters   experiments.Counters
	byCell     map[int]*stats.Run
	peakMB     float64
	retainedMB float64
}

// minstsPerS is the pass's simulated instructions per second, in
// millions.
func (p passResult) minstsPerS() float64 {
	w := windowOf(p.samples, p.wall)
	return float64(w.committed) / 1e6 / w.wall.Seconds()
}

// resetPeakRSS resets the process's peak resident memory (VmHWM) to
// its current resident memory.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// retainedRSSMB is the process's resident memory, in MB, after a full
// collection has returned all garbage to the OS: at the end of a pass
// the Runner still holds every recording and result.
func retainedRSSMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runSweep is the untraced run of sweep-full and sweep-sampled: set-up
// repeated (see timedSetup), then whole passes, each a seeded stream
// of its own through a fresh Runner, until the timed phase has lasted
// e.seconds.
func runSweep(ctx context.Context, e *env, w workloadSpec, rep *report, o *outcome) error {
	cs, err := enumerate(ctx, w.experiments)
	if err != nil {
		return err
	}
	var recdir string
	setups, err := timedSetup(func(n int) error {
		if recdir != "" {
			_ = os.RemoveAll(recdir) // only the last set-up's directory is used
		}
		recdir, err = sweepSetup(ctx, e, w, cs, n)
		return err
	})
	if err != nil {
		return err
	}
	var all []sample
	var windows []window
	var wall time.Duration
	var peaks, retained []float64
	// Whole passes until the phase has lasted e.seconds and has at least
	// minRequests requests, so p99 has ten samples beyond it.
	for n := 0; wall < e.seconds || len(all) < minRequests; n++ {
		stream := sweepStream(cs, passSeed(e.seed, n))
		p := sweepPass(ctx, e, w, cs, stream, recdir, o, experiments.Hooks{})
		all = append(all, p.samples...)
		windows = append(windows, windowOf(p.samples, p.wall))
		wall += p.wall
		peaks = append(peaks, p.peakMB)
		retained = append(retained, p.retainedMB)
		if !w.sampled {
			// sweep-full's set-up, the program builds alone, is short: time
			// it once more after every pass, so set-up is sampled across the
			// run as the passes are, not only in its first seconds.
			t0 := time.Now()
			if err := buildPrograms(); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	rep.extra["passes"] = len(windows)
	rep.extra["retained_mb"] = retained
	rep.extra["peak_mb"] = peaks
	rep.extra["requests_per_pass"] = len(all) / len(windows)
	rep.extra["unique_cells"] = len(cs.cells)
	reportLatencies(rep, all, windows)
	rep.extra["setup_s"] = setups
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("peak_rss_mb", median(peaks), "MB", len(peaks))
	rep.set("ok_frac", okFrac(o), "ratio", o.attempted)
	return nil
}

// window is one stretch of a timed phase: a sweep pass, or one second
// of serve-mixed.
type window struct {
	answered  int
	committed int64
	wall      time.Duration
}

// windowOf tallies the answered requests and simulated instructions of
// some samples over wall.
func windowOf(samples []sample, wall time.Duration) window {
	w := window{wall: wall}
	for _, s := range samples {
		if !s.failed {
			w.answered++
			w.committed += s.committed
		}
	}
	return w
}

// reportLatencies derives the request-level end-to-end metrics of a
// timed phase. Rates are medians over its windows, so a burst of
// interference from other tenants of the host skews one window, not
// the run.
func reportLatencies(rep *report, samples []sample, windows []window) {
	var all, hits, misses []float64
	answered := 0
	for _, s := range samples {
		ms := float64(s.latency) / float64(time.Millisecond)
		if s.failed {
			all = append(all, inf)
			continue
		}
		answered++
		all = append(all, ms)
		switch s.source {
		case experiments.SourceSimulated:
			misses = append(misses, ms)
		case experiments.SourceCache, experiments.SourceJournal:
			hits = append(hits, ms)
		}
	}
	var insts, cells []float64
	for _, w := range windows {
		insts = append(insts, float64(w.committed)/1e6/w.wall.Seconds())
		cells = append(cells, float64(w.answered)/w.wall.Seconds())
	}
	rep.set("sim_minsts_per_s", median(insts), "Minsts/s", len(windows))
	rep.set("cells_per_s", median(cells), "1/s", len(windows))
	rep.set("cell_p50_ms", percentile(all, 50), "ms", len(all))
	rep.set("cell_p99_ms", percentile(all, 99), "ms", len(all))
	rep.set("hit_p50_ms", percentile(hits, 50), "ms", len(hits))
	rep.set("miss_p50_ms", percentile(misses, 50), "ms", len(misses))
	rep.extra["answered"] = answered
}

func okFrac(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.attempted-o.failed) / float64(o.attempted)
}
