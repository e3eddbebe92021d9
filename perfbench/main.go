// Command perfbench is mdspec's repository benchmark. It runs one of
// three workloads and prints its metrics, ending with one JSON line:
//
//	perfbench -workload sweep-full|sweep-sampled|serve-mixed|all -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics a user of mdexp or
// mdserve waits on; with -trace 1 it replays the workload's cells through
// the public functions of each module with spans around every call, and
// reports the per-layer metrics. Every simulated statistic is checked
// against golden digests (golden.json); a mismatch fails the run. Run it
// through run.sh, which builds it and mdserve from the same checkout.
// See README.md for the workloads, metrics and layer map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// callers is the concurrency of every workload: concurrent sweep callers
// and simulation slots, and concurrent mdserve connections. It is capped
// by the host's CPU count when that is smaller.
const callers = 2

// workloadSpec fixes one workload's inputs apart from the seed. Why
// each workload exists is in README.md and BENCHMARK.json.
type workloadSpec struct {
	name  string
	insts int64 // per-cell committed-instruction budget
	// sampled selects the §3.1 sampled, phase-selected methodology.
	sampled bool
	// experiments are the mdexp experiments whose cells the workload runs.
	experiments []string
}

var workloads = []workloadSpec{
	{
		name:        "sweep-full",
		insts:       30_000,
		experiments: allExperiments,
	},
	{
		name:        "sweep-sampled",
		insts:       100_000,
		sampled:     true,
		experiments: []string{"fig2", "fig6"},
	},
	{
		name:  "serve-mixed",
		insts: 20_000,
		// Clients run every experiment of mdexp all (see newServeInputs).
		experiments: allExperiments,
	},
}

// Sampling geometry of sweep-sampled (mdexp -sampled 5000:10000 -phases 8).
const (
	timingWindow     = 5_000
	functionalWindow = 10_000
	phases           = 8
)

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics with their sample counts, plus
// anything worth publishing that is not a metric.
type report struct {
	metrics map[string]metric
	samples map[string]int
	extra   map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}, extra: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *report) has(name string) bool {
	_, ok := r.metrics[name]
	return ok
}

// setNew is set for a metric no earlier step of the run measured.
func (r *report) setNew(name string, v float64, unit string, samples int) {
	if !r.has(name) {
		r.set(name, v, unit, samples)
	}
}

// env is what every workload run needs to know about its surroundings.
type env struct {
	root    string // repository checkout
	bin     string // directory holding the mdserve binary
	out     string // report directory
	work    string // the running workload's scratch directory
	tmp     string // TMPDIR for mdserve (fleet sockets)
	seed    int64
	seconds time.Duration
	golden  *goldenSet
	logf    func(format string, args ...any)
}

func main() {
	wname := flag.String("workload", "", "workload: sweep-full, sweep-sampled, serve-mixed, or all (each in turn)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	bin := flag.String("bin", "", "directory holding the mdserve binary (default <root>/.bench_build/perfbench)")
	out := flag.String("out", "", "report directory (default <root>/.bench_out)")
	writeGolden := flag.Bool("write-golden", false, "recompute golden.json from this checkout and exit")
	flag.Parse()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	e := &env{
		root:    absRoot,
		bin:     *bin,
		out:     *out,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		},
	}
	if e.bin == "" {
		e.bin = filepath.Join(absRoot, ".bench_build", "perfbench")
	}
	if e.out == "" {
		e.out = filepath.Join(absRoot, ".bench_out")
	}
	goldenPath := filepath.Join(absRoot, "perfbench", "golden.json")
	ctx := context.Background()

	if *writeGolden {
		if err := writeGoldenFile(ctx, e, goldenPath); err != nil {
			fatal(err)
		}
		return
	}
	ws := workloads
	if *wname != "all" {
		w, ok := lookupWorkload(*wname)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have sweep-full, sweep-sampled, serve-mixed, all)", *wname))
		}
		ws = []workloadSpec{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	if e.golden, err = loadGolden(goldenPath); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fatal(err)
	}
	correct := true
	for _, w := range ws {
		ok, err := runWorkload(ctx, e, w, *trace == 1)
		if err != nil {
			fatal(err)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}

// runWorkload runs and reports one workload in a scratch directory of
// its own, and reports whether every check passed.
func runWorkload(ctx context.Context, e *env, w workloadSpec, traced bool) (bool, error) {
	var err error
	if e.work, err = os.MkdirTemp(e.out, fmt.Sprintf("run-%s-", w.name)); err != nil {
		return false, err
	}
	defer os.RemoveAll(e.work)
	e.tmp = socketTempDir(e.work)
	rep, o := newReport(), &outcome{}
	run := runUntraced
	if traced {
		run = runTraced
	}
	if err := run(ctx, e, w, rep, o); err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	return emit(e, w, traced, rep, o), nil
}

// socketTempDir picks the TMPDIR mdserve creates its fleet sockets in:
// inside the run directory unless that path is too long for a unix
// socket address, then the system default.
func socketTempDir(work string) string {
	dir := filepath.Join(work, "t")
	if len(dir)+48 > 104 { // sun_path limit, minus mdserve-fleet-*/wN.sock
		return os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return os.TempDir()
	}
	return dir
}

// outcome is a run's correctness tally: requests attempted, and the
// ones that failed or did not match their golden digest.
type outcome struct {
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// emit prints the human-readable metric table, writes the full report
// with provenance, and prints the final JSON line. It reports whether
// every check passed.
func emit(e *env, w workloadSpec, traced bool, rep *report, o *outcome) bool {
	want := endToEndNames
	if traced {
		want = perLayerNames
	}
	metrics := map[string]metric{}
	for _, name := range want {
		m, ok := rep.metrics[name]
		if !ok {
			o.fail("metric %s was not measured", name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			o.fail("metric %s is %v", name, m.Value)
			continue
		}
		metrics[name] = m
	}
	correct := o.failed == 0
	prov := provenance(e, w)
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench %s seed=%d trace=%v\n", w.name, e.seed, traced)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("# %-34s %14.6g %-8s samples=%d\n", name, m.Value, m.Unit, rep.samples[name])
	}
	for _, p := range o.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s\n", pj)

	full := map[string]any{
		"provenance": prov,
		"correct":    correct,
		"attempted":  o.attempted,
		"failed":     o.failed,
		"problems":   o.problems,
		"metrics":    rep.metrics,
		"samples":    rep.samples,
		"extra":      rep.extra,
	}
	trace := 0
	if traced {
		trace = 1
	}
	name := filepath.Join(e.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, e.seed, trace))
	b, err := json.MarshalIndent(full, "", "  ")
	if err == nil {
		err = os.WriteFile(name, b, 0o644)
	}
	if err != nil {
		e.logf("writing report %s: %v", name, err)
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
		correct = false
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, o.failed, metrics})
	fmt.Println(string(line))
	return correct
}

// provenance stamps a result with the host, toolchain, code and input
// identity it was measured under.
func provenance(e *env, w workloadSpec) map[string]any {
	budget := map[string]any{"insts": w.insts, "callers": parallelism()}
	if w.sampled {
		budget["sampled"] = fmt.Sprintf("%d:%d", timingWindow, functionalWindow)
		budget["phases"] = phases
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commitID(e.root),
		"seed":       e.seed,
		"workload":   w.name,
		"budget":     budget,
		"seconds":    e.seconds.Seconds(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the checkout
// is itself a repository, else a digest of its Go sources (an exported
// tree carries no commit, and a repository around it would name the
// wrong code).
func commitID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:12])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
