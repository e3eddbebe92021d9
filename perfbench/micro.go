package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/experiments"
	"mdspec/internal/parsim"
	"mdspec/internal/prog"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// microBench is the benchmark the micro rows run on (the analog
// BENCH_speed.json's timing-core rows use).
const microBench = "126.gcc"

// microRows measures the layer costs a workload's own cells do not
// exercise, on microBench, filling only metrics still missing (the
// emu decode, bytes/inst, allocation and journal-append rows always
// run here).
func microRows(ctx context.Context, e *env, t *tracer, rep *report, o *outcome) error {
	p, err := workload.Build(microBench)
	if err != nil {
		return err
	}
	sampledW, _ := lookupWorkload("sweep-sampled")
	horizon := (sampledW.insts+timingWindow-1)/timingWindow*(timingWindow+functionalWindow) + 1<<17

	// Capture, encode, open, decode.
	rec := emu.NewRecording(emu.New(p))
	var capture time.Duration
	t.do("emu.capture", -1, -1, func(int) {
		s := time.Now()
		rec.Record(horizon)
		capture = time.Since(s)
	})
	rep.setNew("emu.capture_ns_per_inst", float64(capture)/float64(rec.Len()), "ns", 1)
	rep.set("emu.bytes_per_inst", float64(rec.SizeBytes())/float64(rec.Len()), "B", 1)
	dir := filepath.Join(e.work, "micro")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	recPath := filepath.Join(dir, microBench+".mdrec")
	var encode []float64
	for i := 0; i < 3; i++ {
		f, err := os.Create(recPath)
		if err != nil {
			return err
		}
		s := time.Now()
		n, err := rec.WriteSealedTo(f)
		d := time.Since(s)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("encoding recording: %w", err)
		}
		encode = append(encode, float64(n)/1e6/d.Seconds())
	}
	rep.set("emu.encode_mb_per_s", median(encode), "MB/s", len(encode))
	var opens []float64
	for i := 0; i < 5; i++ {
		s := time.Now()
		f, err := emu.OpenRecordingFile(recPath, p)
		d := time.Since(s)
		if err != nil {
			return err
		}
		f.Close()
		opens = append(opens, ms(d))
	}
	rep.setNew("emu.open_ms", median(opens), "ms", len(opens))
	var decode []float64
	for i := 0; i < 3; i++ {
		rp := rec.NewReplay()
		n := rec.Len()
		s := time.Now()
		for seq := int64(0); seq < n; seq++ {
			rp.At(seq)
		}
		decode = append(decode, float64(time.Since(s))/float64(n))
	}
	rep.set("emu.decode_ns_per_inst", median(decode), "ns", len(decode))

	// Allocations of Pipeline.Run, read from MemStats around the call.
	var allocs []float64
	for _, pol := range []config.Policy{config.NoSpec, config.Sync} {
		pl, err := core.New(config.Default128().WithPolicy(pol), rec.NewReplay())
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := pl.Run(sampledW.insts)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/(float64(res.Committed)/1000))
	}
	rep.set("core.allocs_per_kinst", median(allocs), "count", len(allocs))

	if err := microSampled(ctx, e, t, rep, o, p, rec, dir); err != nil {
		return err
	}
	if err := microJournal(e, rep, rec, p); err != nil {
		return err
	}
	if !rep.has("server.hop_ms_p50") {
		serveW, _ := lookupWorkload("serve-mixed")
		in, err := serveInputsFor(ctx, serveW, e.seed)
		if err != nil {
			return err
		}
		// One pass each at -workers 2 and -workers 0.
		ph, err := tracedServePhase(ctx, e, serveW, t, rep, o, in, 0)
		if err != nil {
			return err
		}
		if err := fleetComparison(ctx, e, serveW, rep, o, in, ph, 0); err != nil {
			return err
		}
	}
	return nil
}

// microSampled measures the checkpoint, parsim and merge layers on
// microBench at sweep-sampled's geometry: build and reopen the
// checkpoint set, then run two configurations both decomposed and
// through parsim.Run, checking the two agree.
func microSampled(ctx context.Context, e *env, t *tracer, rep *report, o *outcome, p *prog.Program, rec *emu.Recording, dir string) error {
	w, _ := lookupWorkload("sweep-sampled")
	cfgs := []config.Machine{config.Default128(), config.Default128().WithPolicy(config.Sync)}
	var set *ckpt.Set
	var err error
	var build time.Duration
	t.do("ckpt.build", -1, -1, func(int) {
		s := time.Now()
		set, err = ckpt.Build(cfgs[0], rec, emu.ProgramFingerprint(p), checkpointSeqs(w.insts))
		build = time.Since(s)
	})
	if err != nil {
		return err
	}
	rep.set("ckpt.build_s", build.Seconds(), "s", 1)
	path := filepath.Join(dir, "micro.mdckpt")
	if err := set.WriteFile(path); err != nil {
		return err
	}
	var opens []float64
	for i := 0; i < 5; i++ {
		s := time.Now()
		if set, err = ckpt.OpenFile(path, emu.ProgramFingerprint(p), set.WarmHash); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(s)))
	}
	rep.setNew("ckpt.open_ms", median(opens), "ms", len(opens))

	plan := phasePlan(w, rec)
	d := newDecomposer(w, "", t)
	b := &benchState{p: p, src: rec, plan: plan}
	b.once.Do(func() {})
	d.benches[microBench] = b
	key := fmt.Sprintf("%s-%016x", microBench, set.WarmHash)
	s := &setState{set: set}
	s.once.Do(func() {})
	d.sets[key] = s

	mark := len(t.snapshot())
	var busy, wall time.Duration
	for i, cfg := range cfgs {
		c := cell{bench: microBench, cfg: cfg, hash: cfg.Hash()}
		id := -100 - i
		var res *stats.Run
		t.do("parsim.run", -1, id, func(int) {
			s := time.Now()
			res, err = parsim.Run(ctx, cfg, rec, parsim.Options{
				TotalTiming: w.insts, TimingInsts: timingWindow, FunctionalInsts: functionalWindow,
				Workers: 1, Checkpoints: set, Select: plan,
			})
			wall += time.Since(s)
		})
		if err != nil {
			return err
		}
		dec, err := d.cell(id, c)
		if err != nil {
			return err
		}
		res.Workload = microBench
		o.attempted++
		if !reflect.DeepEqual(res, dec) {
			o.fail("%s under %s: decomposed sampled run differs from parsim.Run", microBench, cfg.Name())
		}
	}
	spans := t.snapshot()[mark:]
	for _, name := range []string{"core.new", "ckpt.restore", "core.run"} {
		busy += total(durations(spans, name))
	}
	rep.setNew("parsim.busy_frac", busy.Seconds()/wall.Seconds(), "ratio", len(cfgs))
	setSpanMetrics(rep, spans)
	return nil
}

// microJournal times Journal.Append with its fsync over 200 records in
// a fresh leased segment, then ReplayJournalDir over it.
func microJournal(e *env, rep *report, rec *emu.Recording, p *prog.Program) error {
	w, _ := lookupWorkload("serve-mixed")
	opt := runnerOptions(w, "")
	dir := filepath.Join(e.work, "micro-journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pl, err := core.New(config.Default128(), rec.NewReplay())
	if err != nil {
		return err
	}
	res, err := pl.Run(w.insts)
	if err != nil {
		return err
	}
	res.Workload = microBench
	j, _, err := experiments.OpenJournalSegment(dir, "perfbench", opt, experiments.DefaultLeaseTTL)
	if err != nil {
		return err
	}
	var appends []float64
	cfg := config.Default128()
	for i := 0; i < 200; i++ {
		cfg.SquashOverhead = 6 + i // distinct cells
		r := experiments.NewRunRecord(microBench, cfg, w.insts, time.Millisecond, res)
		s := time.Now()
		if err := j.Append(r); err != nil {
			j.Close()
			return err
		}
		appends = append(appends, ms(time.Since(s)))
	}
	if err := j.Close(); err != nil {
		return err
	}
	rep.set("experiments.journal_append_ms_p50", percentile(appends, 50), "ms", len(appends))
	rep.set("experiments.journal_append_ms_p99", percentile(appends, 99), "ms", len(appends))
	if !rep.has("experiments.journal_replay_ms") {
		ms, err := timeReplay(dir, opt)
		if err != nil {
			return err
		}
		rep.set("experiments.journal_replay_ms", ms, "ms", 3)
	}
	return nil
}
