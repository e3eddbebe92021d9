package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// generators mirrors mdexp's experiment registry (cmd/mdexp): the
// request stream an mdexp invocation sends to its Runner.
var generators = map[string]func(context.Context, *experiments.Runner) error{
	"fig1":          gen(experiments.Figure1),
	"table3":        gen(experiments.Table3),
	"fig2":          gen(experiments.Figure2),
	"fig3":          gen(experiments.Figure3),
	"fig4":          gen(experiments.Figure4),
	"fig5":          gen(experiments.Figure5),
	"fig6":          gen(experiments.Figure6),
	"table4":        gen(experiments.Figure6),
	"fig7":          gen(experiments.Figure7),
	"summary":       gen(experiments.Summary),
	"abl-mdpt":      gen(experiments.AblationMDPTSize),
	"abl-flush":     gen(experiments.AblationFlush),
	"abl-window":    gen(experiments.AblationWindow),
	"abl-storesets": gen(experiments.AblationStoreSets),
	"abl-recovery":  gen(experiments.AblationRecovery),
	"abl-bpred":     gen(experiments.AblationBPred),
}

// allExperiments is mdexp's "all", in registry order.
var allExperiments = []string{
	"fig1", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "table4", "fig7",
	"summary", "abl-mdpt", "abl-flush", "abl-window", "abl-storesets", "abl-recovery", "abl-bpred",
}

func gen[T any](f func(context.Context, *experiments.Runner) ([]T, error)) func(context.Context, *experiments.Runner) error {
	return func(ctx context.Context, r *experiments.Runner) error {
		_, err := f(ctx, r)
		return err
	}
}

// cell is one (benchmark, configuration) simulation.
type cell struct {
	bench string
	cfg   config.Machine
	hash  string
}

// cellSet is the request stream of a set of experiments: its unique
// cells and how many further requests repeat one of them (answered
// from the Runner's memo cache in mdexp).
type cellSet struct {
	cells   []cell
	repeats int
}

// enumerate runs the experiments' generators against a stub backend
// that records each requested cell and answers with placeholder
// statistics, so the request stream is known without simulating. The
// cells come back sorted by (bench, config hash).
func enumerate(ctx context.Context, exps []string) (cellSet, error) {
	var mu sync.Mutex
	seen := map[string]cell{}
	r := experiments.NewRunner(experiments.Options{Insts: 1, Parallel: 1})
	r.UseBackend(func(_ context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		h := cfg.Hash()
		mu.Lock()
		seen[bench+"|"+h] = cell{bench: bench, cfg: cfg, hash: h}
		mu.Unlock()
		return &stats.Run{
			Config: cfg.Name(), Workload: bench, Cycles: 1000, Committed: 1000,
			CommittedLoads: 250, CommittedStores: 100, Branches: 150,
			FalseDepLoads: 1, FalseDepDelay: 1, DCacheAccesses: 350, ICacheAccesses: 1000,
		}, nil
	})
	for _, name := range exps {
		g, ok := generators[name]
		if !ok {
			return cellSet{}, fmt.Errorf("unknown experiment %q", name)
		}
		if err := g(ctx, r); err != nil {
			return cellSet{}, fmt.Errorf("enumerating %s: %w", name, err)
		}
	}
	cs := cellSet{repeats: int(r.Counters().CacheHits)}
	for _, c := range seen {
		cs.cells = append(cs.cells, c)
	}
	sort.Slice(cs.cells, func(i, j int) bool {
		a, b := cs.cells[i], cs.cells[j]
		if a.bench != b.bench {
			return a.bench < b.bench
		}
		return a.hash < b.hash
	})
	return cs, nil
}

// passSeed is the seed of pass n of a run with the given seed: every
// pass of a run draws its own stream, so a run's medians average over
// several orders rather than repeat one.
func passSeed(seed int64, n int) int64 { return seed*1_000_003 + int64(n) }

// sweepStream is one seeded request stream over a cell set: every
// unique cell once, with the benchmarks' order and the cells' order
// permuted by the seed, and cs.repeats requests for cells issued
// earlier in the stream spread through it.
func sweepStream(cs cellSet, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	benchRank := map[string]int{}
	for i, b := range rng.Perm(len(workload.Names())) {
		benchRank[workload.Names()[b]] = i
	}
	order := rng.Perm(len(cs.cells))
	// Group by the permuted benchmark order, keeping the permuted cell
	// order within each benchmark, the way mdexp's experiments walk the
	// suite one benchmark after another.
	sort.SliceStable(order, func(i, j int) bool {
		return benchRank[cs.cells[order[i]].bench] < benchRank[cs.cells[order[j]].bench]
	})
	total := len(order) + cs.repeats
	stream := make([]int, 0, total)
	next, repeats := 0, cs.repeats
	for len(stream) < total {
		left := total - len(stream)
		if next < len(order) && (repeats == 0 || next == 0 || rng.Intn(left) >= repeats) {
			stream = append(stream, order[next])
			next++
			continue
		}
		stream = append(stream, stream[rng.Intn(len(stream))])
		repeats--
	}
	return stream
}
