package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
)

// TestRecordingDirCachesAndReplays pins the on-disk recording cache:
// the first runner captures and publishes <bench>.mdrec, a second
// runner in the same dir serves replays from the mmapped file, and
// both produce statistics bit-identical to a runner with no cache.
func TestRecordingDirCachesAndReplays(t *testing.T) {
	dir := t.TempDir()
	const bench = "129.compress"
	cfg := config.Default128().WithPolicy(config.Naive)
	opt := Options{Insts: 10_000, Benchmarks: []string{bench}, RecordingDir: dir}

	key := func(r *Runner) string {
		res, err := r.Run(context.Background(), bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%d/%d/%d", res.Cycles, res.Committed,
			res.Misspeculations, res.SquashedInsts, res.BranchMispredicts)
	}

	r1 := NewRunner(opt)
	got := key(r1)
	if err := r1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, bench+".mdrec")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first run did not publish the recording file: %v", err)
	}

	r2 := NewRunner(opt)
	if got2 := key(r2); got2 != got {
		t.Errorf("file-backed run diverged: %s vs %s", got2, got)
	}
	src, err := r2.recording(bg, bench)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := src.(*emu.FileRecording)
	if !ok {
		t.Fatalf("second runner should replay from the file, got %T", src)
	}
	if !f.Mmapped() {
		t.Log("recording file loaded without mmap (fallback path)")
	}
	defer r2.Close()

	rLive := NewRunner(Options{Insts: 10_000, Benchmarks: []string{bench}})
	if gotLive := key(rLive); gotLive != got {
		t.Errorf("cached recording diverged from live emulation: %s vs %s", got, gotLive)
	}

	// A damaged file must be recaptured, not replayed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(opt)
	if got3 := key(r3); got3 != got {
		t.Errorf("recapture after corruption diverged: %s vs %s", got3, got)
	}
	defer r3.Close()
}
