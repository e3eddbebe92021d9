package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"

	"mdspec/internal/experiments"
	"mdspec/internal/stats"
)

// digestFields are the stats.Run fields the golden digests cover: the
// fields that exist when the digests were computed. A later field is
// left out, so adding a counter does not trip the check; removing or
// renaming one of these does.
var digestFields = []string{
	"Config", "Workload", "Cycles", "Committed", "CommittedLoads", "CommittedStores",
	"Misspeculations", "SquashedInsts", "FalseDepLoads", "FalseDepDelay",
	"Branches", "BranchMispredicts", "DCacheAccesses", "DCacheMisses",
	"ICacheAccesses", "ICacheMisses", "Forwards", "SyncWaits", "Skipped",
	"StallEmpty", "StallMem", "StallExec",
}

// digest hashes the digest fields of a run by name and value.
func digest(r *stats.Run) string {
	if r == nil {
		return "nil"
	}
	v := reflect.ValueOf(*r)
	var b strings.Builder
	for _, name := range digestFields {
		f := v.FieldByName(name)
		if !f.IsValid() {
			fmt.Fprintf(&b, "%s=<missing>;", name)
			continue
		}
		fmt.Fprintf(&b, "%s=%v;", name, f.Interface())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// goldenKey identifies one cell's expected statistics.
func goldenKey(workload string, c cell, insts int64) string {
	return fmt.Sprintf("%s|%s|%s|%d", workload, c.bench, c.hash, insts)
}

// goldenSet is golden.json: the expected digest of every cell any
// workload can request.
type goldenSet struct {
	Fields  []string          `json:"fields"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(path string) (*goldenSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g goldenSet
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if !reflect.DeepEqual(g.Fields, digestFields) {
		return nil, fmt.Errorf("golden digests cover %v, the harness hashes %v", g.Fields, digestFields)
	}
	return &g, nil
}

// check compares one cell's statistics with its golden digest.
func (g *goldenSet) check(o *outcome, workload string, c cell, insts int64, got *stats.Run) {
	key := goldenKey(workload, c, insts)
	want, ok := g.Digests[key]
	switch {
	case !ok:
		o.fail("no golden digest for %s", key)
	case digest(got) != want:
		o.fail("%s under %s: statistics differ from the golden digest", c.bench, c.cfg.Name())
	}
}

// writeGoldenFile simulates every cell of every workload locally and
// writes their digests.
func writeGoldenFile(ctx context.Context, e *env, path string) error {
	g := goldenSet{Fields: digestFields, Digests: map[string]string{}}
	var mu sync.Mutex
	for _, w := range workloads {
		cells, err := workloadCells(ctx, w)
		if err != nil {
			return err
		}
		r := experiments.NewRunner(runnerOptions(w, ""))
		err = runCells(ctx, parallelism(), len(cells), func(i int) error {
			res, err := r.Run(ctx, cells[i].bench, cells[i].cfg)
			if err != nil {
				return err
			}
			mu.Lock()
			g.Digests[goldenKey(w.name, cells[i], w.insts)] = digest(res)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		e.logf("%s: %d golden digests", w.name, len(cells))
	}
	keys := make([]string, 0, len(g.Digests))
	for k := range g.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One digest per line keeps the file diffable.
	var b strings.Builder
	fields, _ := json.Marshal(g.Fields)
	fmt.Fprintf(&b, "{\n\"fields\": %s,\n\"digests\": {\n", fields)
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%q: %q%s\n", k, g.Digests[k], sep)
	}
	b.WriteString("}\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// workloadCells is every cell a workload can request.
func workloadCells(ctx context.Context, w workloadSpec) ([]cell, error) {
	cs, err := enumerate(ctx, w.experiments)
	return cs.cells, err
}

// runCells calls do(0..n-1) from par goroutines and returns the first
// error.
func runCells(ctx context.Context, par, n int, do func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil || ctx.Err() != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := do(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}
