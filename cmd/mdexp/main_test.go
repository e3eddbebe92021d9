package main

import (
	"context"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/stats"
)

// TestAllRequestStream pins the shape of "mdexp all" over the full
// suite: how many cell requests the registry sends the Runner and how
// many distinct cells they name. The repository benchmark's full-timing
// sweep derives its work from the same experiment functions, so a
// change in hit or miss accounting shows here before it moves a
// benchmark number.
func TestAllRequestStream(t *testing.T) {
	r := experiments.NewRunner(experiments.Options{Insts: 1000})
	r.UseBackend(func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return &stats.Run{Workload: bench, Config: cfg.Name(), Cycles: 2, Committed: 1}, nil
	})
	for _, name := range names() {
		e, ok := lookup(name)
		if !ok {
			t.Fatalf("registry name %q does not resolve", name)
		}
		if _, _, err := e.run(context.Background(), r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	c := r.Counters()
	if c.CacheMisses != 392 || c.JobsStarted != 392 || c.CacheHits != 1380 {
		t.Errorf("counters = %+v, want 392 misses and jobs started, 1380 cache hits", c)
	}
}
