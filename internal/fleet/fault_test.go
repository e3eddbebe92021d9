//go:build mdfault

package fleet

// Fault-injection coverage for the supervisor's recovery paths (run
// with `go test -tags mdfault`): a failed fork must be absorbed by the
// capped-backoff respawn loop, and persistent heartbeat-probe failures
// must get the worker recycled — in both cases without losing a cell.

import (
	"sync/atomic"
	"testing"
	"time"

	"mdspec/internal/faultinject"
)

// An injected spawn failure on the first fork must be retried under
// the backoff policy; the fleet still comes up and serves the sweep.
func TestFleetSpawnFaultRetried(t *testing.T) {
	faultinject.Arm(faultinject.Plan{Site: faultinject.SiteWorkerSpawn, N: 1, Kind: faultinject.KindError})
	defer faultinject.Disarm()
	p := startPool(t, testConfig(t, 1, nil))
	sweep(t, p, 4)
	if got := faultinject.Hits(faultinject.SiteWorkerSpawn); got < 2 {
		t.Errorf("spawn site hits = %d, want >= 2 (failed attempt + successful retry)", got)
	}
	if r := p.Report(); r.Alive != 1 {
		t.Errorf("alive = %d, want 1 after spawn-fault recovery", r.Alive)
	}
}

// Persistent heartbeat-probe failures must be treated as a dead
// worker: enough misses trigger a kill and respawn, and the sweep
// still completes (the respawned incarnation's probes keep failing,
// so the fleet flaps — cells ride the alive windows or the fallback).
func TestFleetHeartbeatFaultRecyclesWorker(t *testing.T) {
	faultinject.Arm(faultinject.Plan{Site: faultinject.SiteWorkerHeartbeat, N: 1, Kind: faultinject.KindError, Repeat: true})
	defer faultinject.Disarm()
	var fallbackCalls atomic.Int64
	cfg := testConfig(t, 1, &fallbackCalls)
	cfg.HeartbeatEvery = 20 * time.Millisecond
	cfg.DegradeAfter = 300 * time.Millisecond
	p := startPool(t, cfg)
	sweep(t, p, 4)
	if !eventually(10*time.Second, func() bool { return p.Report().Workers[0].HeartbeatMisses > 0 }) {
		t.Error("no heartbeat misses recorded despite a repeating probe fault")
	}
	if !eventually(10*time.Second, func() bool {
		return p.Report().Workers[0].Restarts > 0 || fallbackCalls.Load() > 0
	}) {
		t.Error("heartbeat loss neither recycled the worker nor degraded to fallback")
	}
}
