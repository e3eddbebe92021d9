package core

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"mdspec/internal/bpred"
	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/isa"
	"mdspec/internal/workload"
)

func TestWarmerStateRoundTrip(t *testing.T) {
	p := workload.MustBuild("129.compress")
	cfg := config.Default128().WithPolicy(config.Sync)
	rec := emu.NewRecording(emu.New(p))
	rec.Record(60_000)

	src := NewMachineWarmer(cfg, rec.NewReplay())
	src.Advance(30_000)
	b := src.AppendState(nil)
	if len(b) != src.StateLen() {
		t.Fatalf("state length = %d, want %d", len(b), src.StateLen())
	}

	dst := NewMachineWarmer(cfg, rec.NewReplay())
	n, err := dst.RestoreState(b)
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if dst.Seq() != 30_000 || dst.Ended() {
		t.Fatalf("restored cursor = %d (ended %v), want 30000", dst.Seq(), dst.Ended())
	}

	// The restored warmer and the original must stay bit-identical
	// through further warming.
	src.Advance(10_000)
	dst.Advance(10_000)
	sb := src.AppendState(nil)
	db := dst.AppendState(nil)
	if !reflect.DeepEqual(sb, db) {
		t.Fatal("warmers diverged after restore")
	}

	if _, err := dst.RestoreState(b[:len(b)-1]); err == nil {
		t.Fatal("truncated restore should fail")
	}
}

// TestRestoreWarmBitIdentical is the core checkpointing contract: a
// segment entered through a warm-state snapshot produces exactly the
// statistics of one entered through a full functional fast-forward.
func TestRestoreWarmBitIdentical(t *testing.T) {
	p := workload.MustBuild("102.swim")
	rec := emu.NewRecording(emu.New(p))
	rec.Record(80_000)

	const start, end, tw, fw, warmup = 45_000, 75_000, 5_000, 10_000, 5_000
	for _, cfg := range []config.Machine{
		config.Default128().WithPolicy(config.Sync),
		config.Default128().WithPolicy(config.Naive),
	} {
		// Reference: fresh machine, full fast-forward from sequence 0.
		ref, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RunSampledInterval(start, end, tw, fw, warmup)
		if err != nil {
			t.Fatal(err)
		}

		// Capture a snapshot mid-way through the warm-up fast-forward
		// region (strictly before start-warmup, leaving a residue).
		w := NewMachineWarmer(cfg, rec.NewReplay())
		w.Advance(30_000)
		snap := w.AppendState(nil)

		pl, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.RestoreWarm(snap); err != nil {
			t.Fatal(err)
		}
		got, err := pl.RunSampledInterval(start, end, tw, fw, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: checkpoint-resumed stats differ from fast-forwarded:\nwant %+v\ngot  %+v",
				cfg.Name(), want, got)
		}

		// A snapshot landing exactly on the warm-up start (zero residue)
		// must also match.
		w2 := NewMachineWarmer(cfg, rec.NewReplay())
		w2.Advance(start - warmup)
		pl2, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		if err := pl2.RestoreWarm(w2.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		got2, err := pl2.RunSampledInterval(start, end, tw, fw, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got2) {
			t.Errorf("%s: zero-residue resume differs from fast-forwarded", cfg.Name())
		}
	}
}

func TestRestoreWarmRejects(t *testing.T) {
	p := workload.KernelRecurrence(500)
	cfg := config.Default128()
	rec := emu.NewRecording(emu.New(p))
	rec.Record(2_000)

	w := NewMachineWarmer(cfg, rec.NewReplay())
	w.Advance(1_000)
	snap := w.AppendState(nil)

	// Used pipeline: rejected.
	pl, err := New(cfg, rec.NewReplay())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(500); err != nil {
		t.Fatal(err)
	}
	if err := pl.RestoreWarm(snap); err != ErrPipelineUsed {
		t.Fatalf("used pipeline: err = %v, want ErrPipelineUsed", err)
	}

	// Double restore: rejected (the warmer is already mid-stream).
	pl2, _ := New(cfg, rec.NewReplay())
	if err := pl2.RestoreWarm(snap); err != nil {
		t.Fatal(err)
	}
	if err := pl2.RestoreWarm(snap); err != ErrPipelineUsed {
		t.Fatalf("double restore: err = %v, want ErrPipelineUsed", err)
	}

	// A snapshot past the interval's warm-up start: rejected by the run.
	pl3, _ := New(cfg, rec.NewReplay())
	if err := pl3.RestoreWarm(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := pl3.RunSampledInterval(500, 1_500, 100, 200, 0); err == nil {
		t.Fatal("restore past warm-up start should error")
	}
}

// sliceStream serves a fixed, fully materialized instruction stream.
type sliceStream []emu.DynInst

func (s sliceStream) At(seq int64) *emu.DynInst {
	if seq >= int64(len(s)) {
		return nil
	}
	return &s[seq]
}
func (s sliceStream) Release(int64) {}
func (s sliceStream) Len() int64    { return int64(len(s)) }

// seededStream builds n instructions from a xorshift generator: loads
// and stores over a footprint several times the L2 (so every level sees
// hits, misses and LRU replacement), conditional branches at a few
// hundred PCs with biased directions, and ALU filler.
func seededStream(n int, seed uint64) sliceStream {
	rng := seed
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	insts := []*isa.Inst{
		{Op: isa.LW}, {Op: isa.SW}, {Op: isa.BNE, Target: 0x1000}, {Op: isa.ADD},
	}
	s := make(sliceStream, n)
	pc := uint32(0x400000)
	for i := range s {
		v := next()
		d := &s[i]
		d.Seq = int64(i)
		d.PC = pc
		d.Inst = insts[v&3]
		switch d.Inst.Op {
		case isa.LW, isa.SW:
			// A hot 64K region most of the time, a 16M region otherwise.
			if v&0x30 != 0 {
				d.Addr = uint32(v>>8) & 0xfffc
			} else {
				d.Addr = 0x10000000 + uint32(v>>8)&0xfffffc
			}
		case isa.BNE:
			d.PC = 0x400000 + uint32(v>>40)&0x3fc
			d.Taken = (v>>20)%8 != 0
		}
		pc = d.PC + isa.InstBytes
		if v&0x3c0 == 0 {
			pc = 0x400000 + uint32(v>>32)&0x3fffc // jump to another I-cache block
		}
		d.NextPC = pc
	}
	return s
}

// TestWarmStateFormatDigest pins the byte format of the warm state a
// checkpoint frame carries: the Table 2 hierarchy and the default branch
// predictor, warmed over a fixed seeded stream, must serialize to
// exactly the bytes recorded when this pin was introduced. Checkpoint
// files are content-addressed and reused across builds, so any change
// to the layout (field order, set walk order, widths) must be a
// deliberate format change, not a side effect of a refactor.
func TestWarmStateFormatDigest(t *testing.T) {
	const want = "e639ecce5c596712db941cdccf3bece02a6fd921a72c05509959d35a299e7011"
	w := NewWarmer(seededStream(200_000, 0x9e3779b97f4a7c15), cache.Table2(), bpred.New(bpred.Default()))
	w.Advance(150_000)
	for _, c := range []*cache.Cache{w.hier.I, w.hier.D, w.hier.L2} {
		if st := c.Stats; st.Misses == 0 || st.Misses == st.Accesses {
			t.Fatalf("%s: %d misses in %d accesses; the stream must produce both hits and misses",
				c.Config().Name, st.Misses, st.Accesses)
		}
	}
	b := w.AppendState(nil)
	if len(b) != w.StateLen() {
		t.Fatalf("state length = %d, want %d", len(b), w.StateLen())
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("warm-state digest = %s, want %s (checkpoint byte format changed)", got, want)
	}
}
