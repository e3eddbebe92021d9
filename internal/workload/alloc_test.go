package workload

import (
	"runtime"
	"testing"

	"mdspec/internal/emu"
)

// TestBuildAllocBound holds a program build plus the emulator set-up
// over it to a fixed number of allocations and bytes. Every sweep,
// fresh Runner and fleet worker builds and loads the 18 analogs before
// its first cycle, so a data image or emulator memory that goes back to
// per-word maps shows here first. 126.gcc has the suite's largest
// footprint (1<<17 words).
func TestBuildAllocBound(t *testing.T) {
	const runs = 3
	// Measured: 183 mallocs and 6.0 MB. The data image, its copy in
	// emu.Memory and the last-store table are about 1.5 MB each.
	const maxMallocs, maxBytes = 300, 8 << 20
	build := func() {
		runtime.KeepAlive(emu.New(MustBuild("126.gcc")))
	}
	build() // warm any lazily built tables, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	mallocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Build(126.gcc)+emu.New: %d mallocs, %d bytes", mallocs, bytes)
	if mallocs > maxMallocs {
		t.Errorf("Build(126.gcc)+emu.New made %d mallocs, want at most %d", mallocs, maxMallocs)
	}
	if bytes > maxBytes {
		t.Errorf("Build(126.gcc)+emu.New allocated %d bytes, want at most %d", bytes, maxBytes)
	}
}
