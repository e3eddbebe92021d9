package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/parsim"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

var endToEndNames = []string{
	"setup_s", "sim_minsts_per_s", "cells_per_s", "cell_p50_ms", "cell_p99_ms",
	"hit_p50_ms", "miss_p50_ms", "peak_rss_mb", "ok_frac",
}

var perLayerNames = []string{
	"workload.build_ms",
	"emu.capture_ns_per_inst", "emu.encode_mb_per_s", "emu.open_ms", "emu.decode_ns_per_inst", "emu.bytes_per_inst",
	"core.ns_per_inst", "core.busy_s", "core.allocs_per_kinst",
	"core.cpu_frac.issue", "core.cpu_frac.fetch", "core.cpu_frac.dispatch",
	"core.cpu_frac.commit", "core.cpu_frac.decode", "core.cpu_frac.copy",
	"ckpt.build_s", "ckpt.open_ms", "ckpt.restore_us", "ckpt.hit_ratio",
	"parsim.run_ms_p50", "parsim.busy_frac",
	"stats.merge_us",
	"experiments.cell_ms_p50", "experiments.cell_ms_p99", "experiments.cache_hit_ratio",
	"experiments.journal_append_ms_p50", "experiments.journal_append_ms_p99", "experiments.journal_replay_ms",
	"server.hop_ms_p50", "server.hit_ms_p50", "server.refused", "server.queue_depth_max",
	"fleet.overhead_ms_p50", "fleet.cell_share_max", "fleet.steals", "fleet.restarts",
	"trace.overhead_minsts_per_s", "trace.unaccounted_frac",
}

func runUntraced(ctx context.Context, e *env, w workloadSpec, rep *report, o *outcome) error {
	if w.name == "serve-mixed" {
		return runServe(ctx, e, w, rep, o)
	}
	return runSweep(ctx, e, w, rep, o)
}

// runTraced is the per-layer run: the workload's own cells through the
// decomposed public calls, then micro rows for every layer the workload
// does not exercise itself.
func runTraced(ctx context.Context, e *env, w workloadSpec, rep *report, o *outcome) error {
	t := newTracer()
	var err error
	if w.name == "serve-mixed" {
		err = tracedServe(ctx, e, w, t, rep, o)
	} else {
		err = tracedSweep(ctx, e, w, t, rep, o)
	}
	if err != nil {
		return err
	}
	if err := microRows(ctx, e, t, rep, o); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(e.out, fmt.Sprintf("%s-seed%d-spans.json", w.name, e.seed)), t.snapshot()); err != nil {
		e.logf("writing spans: %v", err)
	}
	return nil
}

// tracedSweep decomposes sweep-full or sweep-sampled.
func tracedSweep(ctx context.Context, e *env, w workloadSpec, t *tracer, rep *report, o *outcome) error {
	cs, err := enumerate(ctx, w.experiments)
	if err != nil {
		return err
	}
	stream := sweepStream(cs, passSeed(e.seed, 0))
	if err := timeBuilds(t, rep); err != nil {
		return err
	}
	recdir, err := sweepSetup(ctx, e, w, cs, 0)
	if err != nil {
		return err
	}

	// The untraced reference: one pass through an experiments.Runner,
	// cells timed with Hooks. A first, unmeasured pass grows the heap, as
	// the untraced run's later passes and the traced pass find it.
	sweepPass(ctx, e, w, cs, stream, recdir, o, experiments.Hooks{})
	runtime.GC()
	var mu sync.Mutex
	var cellTimes []time.Duration
	hooks := experiments.Hooks{JobFinished: func(_, _ string, d time.Duration, _ error) {
		mu.Lock()
		cellTimes = append(cellTimes, d)
		mu.Unlock()
	}}
	pass := sweepPass(ctx, e, w, cs, stream, recdir, o, hooks)
	reportRunnerLayer(rep, cellTimes, pass.counters)

	var order []int
	seen := map[int]bool{}
	for _, i := range stream {
		if !seen[i] {
			seen[i] = true
			order = append(order, i)
		}
	}
	d, err := tracedPass(ctx, e, w, t, rep, o, cs.cells, order, recdir, pass.byCell, pass.minstsPerS())
	if err != nil {
		return err
	}
	defer d.close()
	if !w.sampled {
		return nil
	}
	return parsimProbe(ctx, w, t, rep, o, d, cs.cells, order, pass.byCell)
}

// timeBuilds builds the 18 programs, one span each, and reports the
// total.
func timeBuilds(t *tracer, rep *report) error {
	var builds []time.Duration
	for _, b := range workload.Names() {
		var err error
		t.do("workload.build", -1, -1, func(int) {
			s := time.Now()
			_, err = workload.Build(b)
			builds = append(builds, time.Since(s))
		})
		if err != nil {
			return err
		}
	}
	rep.set("workload.build_ms", ms(total(builds)), "ms", len(builds))
	return nil
}

// parsimProbe runs the first sampled cells of the traced pass through
// parsim.Run itself (one worker, as under a saturated sweep) and then
// decomposed again, one cell at a time, checks all three agree with the
// Runner, and reports the share of parsim.Run's wall time the
// decomposed core calls of the same cells took.
func parsimProbe(ctx context.Context, w workloadSpec, t *tracer, rep *report, o *outcome, d *decomposer, cells []cell, order []int, ref map[int]*stats.Run) error {
	const probeCells = 12
	mark := len(t.snapshot())
	var wall time.Duration
	var probed []int
	for _, i := range order {
		c := cells[i]
		if c.cfg.SplitWindow {
			continue
		}
		if len(probed) == probeCells {
			break
		}
		probed = append(probed, i)
		b, err := d.bench(c.bench, -1, i)
		if err != nil {
			return err
		}
		set := d.set(c.bench, b, c.cfg, -1, i)
		var res *stats.Run
		t.do("parsim.run", -1, i, func(int) {
			s := time.Now()
			res, err = parsim.Run(ctx, c.cfg, b.src, parsim.Options{
				TotalTiming: w.insts, TimingInsts: timingWindow, FunctionalInsts: functionalWindow,
				Workers: 1, Checkpoints: set, Select: b.plan,
			})
			wall += time.Since(s)
		})
		if err != nil {
			return err
		}
		res.Workload = c.bench
		dec, err := d.cell(-1-i, c)
		if err != nil {
			return err
		}
		o.attempted++
		if !reflect.DeepEqual(res, ref[i]) || !reflect.DeepEqual(dec, ref[i]) {
			o.fail("%s under %s: parsim.Run or its decomposition differs from the Runner", c.bench, c.cfg.Name())
		}
	}
	spans := t.snapshot()[mark:]
	var busy time.Duration
	for _, name := range []string{"core.new", "ckpt.restore", "core.run"} {
		busy += total(durations(spans, name))
	}
	rep.set("parsim.busy_frac", busy.Seconds()/wall.Seconds(), "ratio", len(probed))
	setSpanMetrics(rep, spans)
	return nil
}

// reportRunnerLayer reports the experiments-layer metrics of an
// untraced Runner pass, where no earlier step measured them.
func reportRunnerLayer(rep *report, cellTimes []time.Duration, c experiments.Counters) {
	rep.setNew("experiments.cell_ms_p50", percentile(durationsMS(cellTimes), 50), "ms", len(cellTimes))
	rep.setNew("experiments.cell_ms_p99", percentile(durationsMS(cellTimes), 99), "ms", len(cellTimes))
	reportCacheHits(rep, c)
	rep.setNew("ckpt.hit_ratio", ratio(c.CheckpointHits, c.CheckpointHits+c.CheckpointMisses), "ratio", int(c.CheckpointHits+c.CheckpointMisses))
}

// reportCacheHits reports the share of Run calls a Runner answered
// from its memo cache or a primed journal.
func reportCacheHits(rep *report, c experiments.Counters) {
	hits := c.CacheHits + c.Replayed
	rep.setNew("experiments.cache_hit_ratio", ratio(hits, hits+c.CacheMisses), "ratio", int(hits+c.CacheMisses))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedPass runs cells (indices into cells, in order) through the
// decomposed public calls from parallelism() callers under a CPU
// profile, checks each result against the untraced reference and the
// golden digests, and reports the core-layer metrics, the stage split
// and the tracing overhead against untraced (Minsts/s).
//
// The caller closes the returned decomposer.
func tracedPass(ctx context.Context, e *env, w workloadSpec, t *tracer, rep *report, o *outcome, cells []cell, order []int, recdir string, ref map[int]*stats.Run, untraced float64) (*decomposer, error) {
	d := newDecomposer(w, recdir, t)
	profPath := filepath.Join(e.work, "cpu.prof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	mark := len(t.snapshot())
	var committed atomic.Int64
	var mu sync.Mutex
	t0 := time.Now()
	runErr := runCells(ctx, parallelism(), len(order), func(k int) error {
		i := order[k]
		res, err := d.cell(i, cells[i])
		if err != nil {
			return err
		}
		committed.Add(res.Committed)
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(res, ref[i]) {
			o.fail("%s under %s: traced statistics differ from the untraced run", cells[i].bench, cells[i].cfg.Name())
		}
		e.golden.check(o, w.name, cells[i], w.insts, res)
		return nil
	})
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		d.close()
		return nil, err
	}
	if runErr != nil {
		d.close()
		return nil, runErr
	}
	o.attempted += len(order)
	spans := t.snapshot()[mark:]

	traced := float64(committed.Load()) / 1e6 / wall.Seconds()
	rep.set("trace.overhead_minsts_per_s", traced-untraced, "Minsts/s", len(order))
	rep.extra["traced_minsts_per_s"] = traced
	rep.extra["untraced_minsts_per_s"] = untraced

	self := selfTimes(spans)
	rep.extra["self_seconds"] = secondsByLayer(self)
	// The experiments.cell root span is the harness's own loop; every
	// other span is a call into a module.
	var accounted time.Duration
	for layer, d := range self {
		if layer != "experiments" {
			accounted += d
		}
	}
	rep.set("trace.unaccounted_frac", 1-accounted.Seconds()/(float64(parallelism())*wall.Seconds()), "ratio", len(spans))
	if caps := durations(spans, "emu.capture"); len(caps) > 0 {
		rep.set("emu.capture_ns_per_inst", float64(total(caps))/float64(d.captured.Load()), "ns", len(caps))
	}

	runs := durations(spans, "core.run")
	rep.set("core.ns_per_inst", float64(total(runs))/float64(d.timingInsts.Load()), "ns", len(runs))
	rep.set("core.busy_s", self["core"].Seconds(), "s", len(runs))
	setSpanMetrics(rep, spans)

	split, err := stageSplit(profPath)
	if err != nil {
		d.close()
		return nil, err
	}
	for _, name := range []string{"issue", "fetch", "dispatch", "commit", "decode", "copy"} {
		rep.set("core.cpu_frac."+name, split[name], "ratio", 1)
	}
	return d, nil
}

// setSpanMetrics reports the median duration of the spans behind
// per-call layer metrics, for each metric not yet measured that the
// spans have samples for.
func setSpanMetrics(rep *report, spans []span) {
	for _, r := range []struct {
		span, metric, unit string
		scale              float64 // unit per nanosecond
	}{
		{"emu.open", "emu.open_ms", "ms", 1e-6},
		{"ckpt.open", "ckpt.open_ms", "ms", 1e-6},
		{"ckpt.restore", "ckpt.restore_us", "us", 1e-3},
		{"stats.merge", "stats.merge_us", "us", 1e-3},
		{"parsim.run", "parsim.run_ms_p50", "ms", 1e-6},
	} {
		ds := durations(spans, r.span)
		if len(ds) == 0 {
			continue
		}
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) * r.scale
		}
		rep.setNew(r.metric, percentile(xs, 50), r.unit, len(xs))
	}
}

func secondsByLayer(m map[string]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = v.Seconds()
	}
	return out
}

// stageSplit buckets a CPU profile by timing-core stage with
// go tool pprof -top: the cumulative share of all samples under each
// stage's entry point, plus replay decode (emu.(*Replay).decode, inside
// fetch) and struct copies (runtime.duffcopy, flat, inside the stages).
func stageSplit(profPath string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000",
		"-nodefraction=0", "-edgefraction=0", profPath).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	cum := map[string]float64{}
	flat := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		fl, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cu, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		flat[name] += fl / 100
		cum[name] += cu / 100
	}
	const pl = "mdspec/internal/core.(*Pipeline)."
	return map[string]float64{
		"issue":    cum[pl+"issue"] + cum[pl+"processWakeups"],
		"fetch":    cum[pl+"fetch"] + cum[pl+"fetchSplit"],
		"dispatch": cum[pl+"dispatch"],
		"commit":   cum[pl+"commit"],
		"decode":   cum["mdspec/internal/emu.(*Replay).decode"],
		"copy":     flat["runtime.duffcopy"],
	}, nil
}

// tracedServe decomposes serve-mixed: the timed phase against the
// 2-worker fleet with client-side spans and queue polling, the same
// phase at -workers 0 for the fleet's overhead, then the cells the
// fleet simulated re-run locally, untraced and decomposed.
func tracedServe(ctx context.Context, e *env, w workloadSpec, t *tracer, rep *report, o *outcome) error {
	in, err := serveInputsFor(ctx, w, e.seed)
	if err != nil {
		return err
	}
	ph, err := tracedServePhase(ctx, e, w, t, rep, o, in, e.seconds)
	if err != nil {
		return err
	}
	if err := fleetComparison(ctx, e, w, rep, o, in, ph, e.seconds/2); err != nil {
		return err
	}

	// The server-vs-local check and the decomposition, over the cells
	// the fleet simulated.
	missed := sortedCells(ph.simulated)
	if err := timeBuilds(t, rep); err != nil {
		return err
	}
	var mu sync.Mutex
	var cellTimes []time.Duration
	hooks := experiments.Hooks{JobFinished: func(_, _ string, d time.Duration, _ error) {
		mu.Lock()
		cellTimes = append(cellTimes, d)
		mu.Unlock()
	}}
	recdir := filepath.Join(e.work, "recdir")
	pass := sweepPass(ctx, e, w, cellSet{cells: in.cells}, missed, recdir, o, hooks)
	for _, i := range missed {
		o.attempted++
		if !reflect.DeepEqual(pass.byCell[i], ph.simulated[i]) {
			o.fail("%s under %s: served statistics differ from a local run", in.cells[i].bench, in.cells[i].cfg.Name())
		}
	}
	reportRunnerLayer(rep, cellTimes, pass.counters)
	d, err := tracedPass(ctx, e, w, t, rep, o, in.cells, missed, recdir, pass.byCell, pass.minstsPerS())
	if err != nil {
		return err
	}
	d.close()
	return nil
}

// tracedServePhase is the serve-mixed timed phase at serveWorkers with
// one span per request, reporting the server- and fleet-layer metrics.
func tracedServePhase(ctx context.Context, e *env, w workloadSpec, t *tracer, rep *report, o *outcome, in serveInputs, d time.Duration) (servePhase, error) {
	ph, err := servePasses(ctx, e, w, in, serveWorkers, d, 1, true, o)
	if err != nil {
		return ph, err
	}
	var hits, hops []float64
	var refused int64
	queueMax := 0
	for _, p := range ph.passes {
		t.add("server.start", -1, -1, p.begin, p.begin.Add(p.setup))
		for _, s := range p.samples {
			t.add("server.request", -1, s.cell, s.start, s.start.Add(s.latency))
			switch s.source {
			case experiments.SourceCache, experiments.SourceJournal:
				hits = append(hits, ms(s.latency))
			case experiments.SourceSimulated:
				hops = append(hops, ms(s.latency)-s.wall*1e3)
			}
		}
		refused += p.metrics.Endpoints["POST /v1/runs"].Errors
		queueMax = max(queueMax, p.queueMax)
	}
	rep.set("server.hit_ms_p50", percentile(hits, 50), "ms", len(hits))
	rep.set("server.hop_ms_p50", percentile(hops, 50), "ms", len(hops))
	rep.set("server.refused", float64(refused), "count", len(ph.passes))
	rep.set("server.queue_depth_max", float64(queueMax), "count", len(ph.passes))
	share, steals, restarts := fleetBalance(ph)
	rep.set("fleet.cell_share_max", share, "ratio", len(ph.passes))
	rep.set("fleet.steals", float64(steals), "count", len(ph.passes))
	rep.set("fleet.restarts", float64(restarts), "count", len(ph.passes))
	reportServeMix(rep, ph)
	var c experiments.Counters
	for _, p := range ph.passes {
		c.CacheHits += p.metrics.Counters.CacheHits
		c.CacheMisses += p.metrics.Counters.CacheMisses
		c.Replayed += p.metrics.Counters.Replayed
	}
	reportCacheHits(rep, c)

	if !rep.has("experiments.journal_replay_ms") {
		ms, err := timeReplay(ph.passes[len(ph.passes)-1].journal, runnerOptions(w, ""))
		if err != nil {
			return ph, err
		}
		rep.set("experiments.journal_replay_ms", ms, "ms", 3)
	}
	return ph, nil
}

// timeReplay is the median time of three ReplayJournalDir calls, in ms.
func timeReplay(dir string, opt experiments.Options) (float64, error) {
	var replay []float64
	for i := 0; i < 3; i++ {
		s := time.Now()
		if _, err := experiments.ReplayJournalDir(dir, opt); err != nil {
			return 0, err
		}
		replay = append(replay, ms(time.Since(s)))
	}
	return median(replay), nil
}

// fleetComparison repeats the phase against a single-process daemon
// and reports how much the fleet adds to a miss.
func fleetComparison(ctx context.Context, e *env, w workloadSpec, rep *report, o *outcome, in serveInputs, ph servePhase, d time.Duration) error {
	ph0, err := servePasses(ctx, e, w, in, 0, d, 1, false, o)
	if err != nil {
		return err
	}
	missP50 := func(p servePhase) float64 {
		var xs []float64
		for _, s := range p.samples() {
			if s.source == experiments.SourceSimulated {
				xs = append(xs, ms(s.latency))
			}
		}
		return percentile(xs, 50)
	}
	rep.set("fleet.overhead_ms_p50", missP50(ph)-missP50(ph0), "ms", len(ph0.samples()))
	return nil
}
