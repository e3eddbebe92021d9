package mdp

import (
	"encoding/binary"
	"errors"
)

// Warm-state serialization hooks for the dependence predictors, mirroring
// cache.AppendState/RestoreState. The functional warming pass used for
// checkpoint capture never trains these tables (they learn only from
// timing-mode misspeculations), so today's checkpoint frames carry them
// empty — but the hooks give detailed-state checkpoints and tests a
// bit-exact way to move predictor contents between machines.

// Sentinel decode errors (RestoreState is a hot path).
var (
	// ErrStateTruncated reports a state buffer shorter than its own
	// geometry implies.
	ErrStateTruncated = errors.New("mdp: warm state truncated")
	// ErrStateGeometry reports a state captured from a differently
	// shaped table.
	ErrStateGeometry = errors.New("mdp: warm state geometry mismatch")
)

const tableHdrBytes = 4 + 4 + 8 + 8 + 8 // nSets, assoc, clock, nextFlush, Flushes

// entryBytes is the fixed wire size of one entry minus its value.
const entryKeyBytes = 4 + 1 + 8

// appendTable flattens t; val encodes one entry value.
func appendTable[T any](b []byte, t *table[T], val func([]byte, T) []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(t.nSets()))
	b = binary.LittleEndian.AppendUint32(b, t.assoc)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.clock))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.nextFlush))
	b = binary.LittleEndian.AppendUint64(b, t.Flushes)
	// Set-major, way within set: the flat array's own order.
	for i := range t.entries {
		e := &t.entries[i]
		b = binary.LittleEndian.AppendUint32(b, e.tag)
		if e.valid {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(e.used))
		b = val(b, e.val)
	}
	return b
}

// restoreTable is the inverse of appendTable; valBytes is the fixed wire
// size of one value and val decodes it.
//
//md:hotpath
func restoreTable[T any](t *table[T], b []byte, valBytes int, val func([]byte) T) (int, error) {
	if len(b) < tableHdrBytes {
		return 0, ErrStateTruncated
	}
	if int(binary.LittleEndian.Uint32(b)) != t.nSets() ||
		binary.LittleEndian.Uint32(b[4:]) != t.assoc {
		return 0, ErrStateGeometry
	}
	total := tableHdrBytes + len(t.entries)*(entryKeyBytes+valBytes)
	if len(b) < total {
		return 0, ErrStateTruncated
	}
	t.clock = int64(binary.LittleEndian.Uint64(b[8:]))
	t.nextFlush = int64(binary.LittleEndian.Uint64(b[16:]))
	t.Flushes = binary.LittleEndian.Uint64(b[24:])
	off := tableHdrBytes
	for i := range t.entries {
		t.entries[i] = entry[T]{
			tag:   binary.LittleEndian.Uint32(b[off:]),
			valid: b[off+4] != 0,
			used:  int64(binary.LittleEndian.Uint64(b[off+5:])),
			val:   val(b[off+entryKeyBytes:]), //md:allocok tiny leaf decoder (decodeConfidence/decodeU32): pure byte reads, no allocation
		}
		off += entryKeyBytes + valBytes
	}
	return off, nil
}

func appendConfidence(b []byte, c confidence) []byte { return append(b, c.count) }

func decodeConfidence(b []byte) confidence { return confidence{count: b[0]} }

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func decodeU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// AppendState appends the predictor's warm state to b.
func (s *Selective) AppendState(b []byte) []byte {
	b = appendTable(b, s.t, appendConfidence)
	b = binary.LittleEndian.AppendUint64(b, s.Predictions)
	return binary.LittleEndian.AppendUint64(b, s.Positives)
}

// RestoreState overwrites the predictor's warm state from the front of b.
//
//md:hotpath
func (s *Selective) RestoreState(b []byte) (int, error) {
	n, err := restoreTable(s.t, b, 1, decodeConfidence)
	if err != nil || len(b) < n+16 {
		return n, errOrTruncated(err)
	}
	s.Predictions = binary.LittleEndian.Uint64(b[n:])
	s.Positives = binary.LittleEndian.Uint64(b[n+8:])
	return n + 16, nil
}

// AppendState appends the predictor's warm state to b.
func (s *StoreBarrier) AppendState(b []byte) []byte {
	b = appendTable(b, s.t, appendConfidence)
	b = binary.LittleEndian.AppendUint64(b, s.Predictions)
	return binary.LittleEndian.AppendUint64(b, s.Positives)
}

// RestoreState overwrites the predictor's warm state from the front of b.
//
//md:hotpath
func (s *StoreBarrier) RestoreState(b []byte) (int, error) {
	n, err := restoreTable(s.t, b, 1, decodeConfidence)
	if err != nil || len(b) < n+16 {
		return n, errOrTruncated(err)
	}
	s.Predictions = binary.LittleEndian.Uint64(b[n:])
	s.Positives = binary.LittleEndian.Uint64(b[n+8:])
	return n + 16, nil
}

// AppendState appends the table's warm state to b.
func (m *MDPT) AppendState(b []byte) []byte {
	b = appendTable(b, m.loads, appendU32)
	b = appendTable(b, m.stores, appendU32)
	return binary.LittleEndian.AppendUint64(b, m.Violations)
}

// RestoreState overwrites the table's warm state from the front of b.
//
//md:hotpath
func (m *MDPT) RestoreState(b []byte) (int, error) {
	n, err := restoreTable(m.loads, b, 4, decodeU32)
	if err != nil {
		return n, err
	}
	n2, err := restoreTable(m.stores, b[n:], 4, decodeU32)
	n += n2
	if err != nil || len(b) < n+8 {
		return n, errOrTruncated(err)
	}
	m.Violations = binary.LittleEndian.Uint64(b[n:])
	return n + 8, nil
}

// AppendState appends the predictor's warm state to b.
func (s *StoreSets) AppendState(b []byte) []byte {
	b = appendTable(b, s.ssit, appendU32)
	b = binary.LittleEndian.AppendUint32(b, s.nextID)
	return binary.LittleEndian.AppendUint64(b, s.Merges)
}

// RestoreState overwrites the predictor's warm state from the front of b.
//
//md:hotpath
func (s *StoreSets) RestoreState(b []byte) (int, error) {
	n, err := restoreTable(s.ssit, b, 4, decodeU32)
	if err != nil || len(b) < n+12 {
		return n, errOrTruncated(err)
	}
	s.nextID = binary.LittleEndian.Uint32(b[n:])
	s.Merges = binary.LittleEndian.Uint64(b[n+4:])
	return n + 12, nil
}

func errOrTruncated(err error) error {
	if err != nil {
		return err
	}
	return ErrStateTruncated
}
