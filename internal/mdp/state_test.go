package mdp

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// trainedPredictors returns one of each predictor, trained over the
// same seeded stream of predictions and violations.
func trainedPredictors() (*Selective, *StoreBarrier, *MDPT, *StoreSets) {
	rng := uint64(9)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	sel := NewSelective(DefaultTable())
	sb := NewStoreBarrier(DefaultTable())
	mdpt := NewMDPT(DefaultTable())
	ss := NewStoreSets(DefaultTable())
	for i := 0; i < 30000; i++ {
		v := next()
		pc := uint32(v) &^ 3
		pc2 := uint32(v>>24) &^ 3
		cycle := int64(i * 37)
		sel.Predict(pc, cycle)
		sb.Predict(pc2, cycle)
		if v&7 == 0 {
			sel.RecordViolation(pc, cycle)
			sb.RecordViolation(pc2, cycle)
			mdpt.RecordViolation(pc, pc2, cycle)
			ss.RecordViolation(pc, pc2, cycle)
		}
		mdpt.LoadSynonym(pc, cycle)
		ss.SSID(pc2, cycle)
	}
	return sel, sb, mdpt, ss
}

func TestPredictorStateRoundTrip(t *testing.T) {
	sel, sb, mdpt, ss := trainedPredictors()

	t.Run("selective", func(t *testing.T) {
		b := sel.AppendState(nil)
		got := NewSelective(DefaultTable())
		roundTrip(t, b, got.RestoreState, sel, got)
	})
	t.Run("storebarrier", func(t *testing.T) {
		b := sb.AppendState(nil)
		got := NewStoreBarrier(DefaultTable())
		roundTrip(t, b, got.RestoreState, sb, got)
	})
	t.Run("mdpt", func(t *testing.T) {
		b := mdpt.AppendState(nil)
		got := NewMDPT(DefaultTable())
		roundTrip(t, b, got.RestoreState, mdpt, got)
	})
	t.Run("storesets", func(t *testing.T) {
		b := ss.AppendState(nil)
		got := NewStoreSets(DefaultTable())
		roundTrip(t, b, got.RestoreState, ss, got)
	})
}

// TestPredictorStateFormatDigest pins the predictors' warm-state byte
// format (header, set walk order, entry layout) to the digest recorded
// when this pin was introduced, so a table refactor cannot silently
// change what detailed-state checkpoints carry.
func TestPredictorStateFormatDigest(t *testing.T) {
	const want = "e8ce796cb63046a2177043835408f892879f9a7e7bf328d9668b1cc5eda5e482"
	sel, sb, mdpt, ss := trainedPredictors()
	if sel.t.Flushes == 0 {
		t.Fatal("the training stream must span a periodic flush")
	}
	b := sel.AppendState(nil)
	b = sb.AppendState(b)
	b = mdpt.AppendState(b)
	b = ss.AppendState(b)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("predictor-state digest = %s, want %s (warm-state byte format changed)", got, want)
	}
}

func roundTrip(t *testing.T, b []byte, restore func([]byte) (int, error), want, got any) {
	t.Helper()
	n, err := restore(b)
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restored predictor differs from source")
	}
	if _, err := restore(b[:len(b)-1]); err != ErrStateTruncated {
		t.Fatalf("truncated: err = %v, want ErrStateTruncated", err)
	}
	if _, err := restore(b[:6]); err != ErrStateTruncated {
		t.Fatalf("short header: err = %v, want ErrStateTruncated", err)
	}
}

func TestRestoreGeometryMismatch(t *testing.T) {
	small := TableConfig{Entries: 64, Assoc: 2, FlushInterval: 1000}
	src := NewSelective(DefaultTable())
	src.RecordViolation(0x1000, 1)
	b := src.AppendState(nil)
	got := NewSelective(small)
	if _, err := got.RestoreState(b); err != ErrStateGeometry {
		t.Fatalf("geometry: err = %v, want ErrStateGeometry", err)
	}
}
