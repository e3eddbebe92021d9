package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/parsim"
	"mdspec/internal/prog"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// phaseSeed restates the experiments.Runner's private k-means seed,
// which the decomposed sampled run must reproduce; the traced run's
// DeepEqual check against the Runner catches any drift.
const phaseSeed = 0x6d647370

// decomposer runs a cell by calling the public functions an
// experiments.Runner calls, with a span around each call.
type decomposer struct {
	w      workloadSpec
	recdir string
	t      *tracer

	mu      sync.Mutex
	benches map[string]*benchState
	sets    map[string]*setState

	timingInsts atomic.Int64 // committed instructions of core.run spans
	captured    atomic.Int64 // instructions recorded by emu.capture spans
}

type benchState struct {
	once sync.Once
	p    *prog.Program
	src  emu.ReplaySource
	file *emu.FileRecording
	plan []ckpt.WeightedSegment
	err  error
}

type setState struct {
	once sync.Once
	set  *ckpt.Set
}

func newDecomposer(w workloadSpec, recdir string, t *tracer) *decomposer {
	return &decomposer{w: w, recdir: recdir, t: t, benches: map[string]*benchState{}, sets: map[string]*setState{}}
}

func (d *decomposer) close() {
	for _, b := range d.benches {
		if b.file != nil {
			b.file.Close()
		}
	}
}

// bench prepares a benchmark once: program build, then a recording
// captured in memory or opened from the recording directory, and for
// sampled workloads the phase plan.
func (d *decomposer) bench(name string, parent, cellID int) (*benchState, error) {
	d.mu.Lock()
	b, ok := d.benches[name]
	if !ok {
		b = &benchState{}
		d.benches[name] = b
	}
	d.mu.Unlock()
	b.once.Do(func() {
		d.t.do("workload.build", parent, cellID, func(int) { b.p, b.err = workload.Build(name) })
		if b.err != nil {
			return
		}
		if d.recdir == "" {
			d.t.do("emu.capture", parent, cellID, func(int) {
				rec := emu.NewRecording(emu.New(b.p))
				rec.Record(d.w.insts)
				d.captured.Add(rec.Len())
				b.src = rec
			})
		} else {
			d.t.do("emu.open", parent, cellID, func(int) {
				b.file, b.err = emu.OpenRecordingFile(filepath.Join(d.recdir, name+".mdrec"), b.p)
				b.src = b.file
			})
			if b.err != nil {
				return
			}
		}
		if d.w.sampled {
			d.t.do("ckpt.plan", parent, cellID, func(int) { b.plan = phasePlan(d.w, b.src) })
		}
	})
	return b, b.err
}

// set opens the checkpoint set of a benchmark's warm configuration
// class from the recording directory (nil when there is none).
func (d *decomposer) set(name string, b *benchState, cfg config.Machine, parent, cellID int) *ckpt.Set {
	warm := ckpt.WarmConfigOf(cfg).Hash()
	key := fmt.Sprintf("%s-%016x", name, warm)
	d.mu.Lock()
	s, ok := d.sets[key]
	if !ok {
		s = &setState{}
		d.sets[key] = s
	}
	d.mu.Unlock()
	s.once.Do(func() {
		if d.recdir == "" {
			return
		}
		d.t.do("ckpt.open", parent, cellID, func(int) {
			set, err := ckpt.OpenFile(filepath.Join(d.recdir, key+".mdckpt"), emu.ProgramFingerprint(b.p), warm)
			if err == nil {
				s.set = set
			}
		})
	})
	return s.set
}

// cell simulates one cell.
func (d *decomposer) cell(id int, c cell) (*stats.Run, error) {
	root := d.t.begin("experiments.cell", -1, id)
	defer d.t.end(root)
	b, err := d.bench(c.bench, root, id)
	if err != nil {
		return nil, err
	}
	var res *stats.Run
	if d.w.sampled && !c.cfg.SplitWindow {
		res, err = d.sampled(root, id, c, b)
	} else {
		res, err = d.full(root, id, c.cfg, b.src)
	}
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", c.bench, c.cfg.Name(), err)
	}
	res.Workload = c.bench
	return res, nil
}

func (d *decomposer) full(parent, id int, cfg config.Machine, src emu.ReplaySource) (*stats.Run, error) {
	var pl *core.Pipeline
	var err error
	d.t.do("core.new", parent, id, func(int) { pl, err = core.New(cfg, src.NewReplay()) })
	if err != nil {
		return nil, err
	}
	var res *stats.Run
	d.t.do("core.run", parent, id, func(int) { res, err = pl.Run(d.w.insts) })
	if err == nil {
		d.timingInsts.Add(res.Committed)
	}
	return res, err
}

// sampled is parsim.Run taken apart: the fixed segment decomposition,
// each selected segment on a private pipeline restored from the
// nearest checkpoint, weighted, merged in stream order.
func (d *decomposer) sampled(parent, id int, c cell, b *benchState) (*stats.Run, error) {
	set := d.set(c.bench, b, c.cfg, parent, id)
	segs := segments(d.w.insts)
	weights := make([]int64, len(segs))
	if len(b.plan) == 0 {
		for i := range weights {
			weights[i] = 1
		}
	}
	for _, ws := range b.plan {
		weights[ws.Index] = ws.Weight
	}
	results := make([]*stats.Run, len(segs))
	for i, s := range segs {
		if weights[i] == 0 {
			continue
		}
		var pl *core.Pipeline
		var err error
		d.t.do("core.new", parent, id, func(int) { pl, err = core.New(c.cfg, b.src.NewReplay()) })
		if err != nil {
			return nil, err
		}
		if set != nil {
			if f := set.Nearest(max(0, s[0]-timingWindow)); f != nil {
				var rerr error
				d.t.do("ckpt.restore", parent, id, func(int) { rerr = pl.RestoreWarm(f.State) })
				if rerr != nil {
					return nil, fmt.Errorf("restoring checkpoint at %d: %w", f.Seq, rerr)
				}
			}
		}
		var r *stats.Run
		d.t.do("core.run", parent, id, func(int) {
			r, err = pl.RunSampledInterval(s[0], s[1], timingWindow, functionalWindow, timingWindow)
		})
		if err != nil {
			return nil, err
		}
		d.timingInsts.Add(r.Committed)
		if weights[i] > 1 {
			d.t.do("stats.scale", parent, id, func(int) { r = stats.Scale(r, weights[i]) })
		}
		results[i] = r
	}
	var res *stats.Run
	d.t.do("stats.merge", parent, id, func(int) { res = stats.Merge(results) })
	return res, nil
}

// segments is parsim's fixed decomposition of a sampled budget:
// [start, end) stream bounds of every segment.
func segments(insts int64) [][2]int64 {
	period := int64(timingWindow + functionalWindow)
	nPeriods := (insts + timingWindow - 1) / timingWindow
	per := int64(parsim.DefaultSegmentPeriods)
	var out [][2]int64
	for p := int64(0); p < nPeriods; p += per {
		out = append(out, [2]int64{p * period, min(p+per, nPeriods) * period})
	}
	return out
}

// phasePlan is the Runner's phase selection for one recording.
func phasePlan(w workloadSpec, src emu.ReplaySource) []ckpt.WeightedSegment {
	period := int64(timingWindow + functionalWindow)
	nPeriods := (w.insts + timingWindow - 1) / timingWindow
	vecs, err := ckpt.SegmentBBVs(src, nPeriods*period, parsim.DefaultSegmentPeriods*period, ckpt.BBVDims)
	if err != nil || len(vecs) < 2 {
		return nil
	}
	return ckpt.Plan(vecs, phases, phaseSeed)
}

// checkpointSeqs is the Runner's checkpoint schedule for a sampled
// budget.
func checkpointSeqs(insts int64) []int64 {
	return ckpt.Positions(insts, timingWindow, functionalWindow, parsim.DefaultSegmentPeriods, timingWindow)
}
