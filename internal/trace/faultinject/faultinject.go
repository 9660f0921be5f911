// Package faultinject mutilates encoded trace logs for crash-tolerance
// testing: truncations (a process killed mid-write), bit flips (disk or
// transport corruption), and dropped or duplicated chunks (lost or
// replayed buffers). Every mutation returns a fresh slice and leaves the
// input intact, so one pristine log can seed an arbitrary fault corpus.
//
// The package works on raw encoded LTRC2 bytes and uses trace.ChunkSpans
// as its map of chunk boundaries. All randomness flows through an
// explicit *rand.Rand: a seeded fault corpus is fully reproducible.
package faultinject

import (
	"math/rand"

	"literace/internal/trace"
)

// TruncateAt returns the first n bytes of data (the whole log when n is
// past the end). It models a crash between two writes when n is a chunk
// boundary, and a crash mid-write otherwise.
func TruncateAt(data []byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	if n > len(data) {
		n = len(data)
	}
	out := make([]byte, n)
	copy(out, data[:n])
	return out
}

// FlipBit returns a copy of data with one bit inverted. bit counts from
// the start of the log (bit = 8*byteOffset + bitIndex); out-of-range bits
// wrap.
func FlipBit(data []byte, bit int) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) == 0 {
		return out
	}
	if bit < 0 {
		bit = -bit
	}
	bit %= 8 * len(out)
	out[bit/8] ^= 1 << uint(bit%8)
	return out
}

// DropChunk returns a copy of data with the i-th chunk removed (the lost
// write of a crashed thread). It returns data unchanged when the log has
// no valid chunk map or i is out of range.
func DropChunk(data []byte, i int) []byte {
	spans, err := trace.ChunkSpans(data)
	if err != nil || i < 0 || i >= len(spans) {
		return append([]byte(nil), data...)
	}
	s := spans[i]
	out := make([]byte, 0, len(data)-(s.End-s.Start))
	out = append(out, data[:s.Start]...)
	out = append(out, data[s.End:]...)
	return out
}

// DuplicateChunk returns a copy of data with the i-th chunk repeated in
// place (a replayed buffer). It returns data unchanged when the log has no
// valid chunk map or i is out of range.
func DuplicateChunk(data []byte, i int) []byte {
	spans, err := trace.ChunkSpans(data)
	if err != nil || i < 0 || i >= len(spans) {
		return append([]byte(nil), data...)
	}
	s := spans[i]
	out := make([]byte, 0, len(data)+(s.End-s.Start))
	out = append(out, data[:s.End]...)
	out = append(out, data[s.Start:s.End]...)
	out = append(out, data[s.End:]...)
	return out
}

// Boundaries returns every crash-consistent cut point of the log: the end
// offset of each chunk, plus the magic boundary. Truncating at any of
// them leaves only whole chunks behind.
func Boundaries(data []byte) []int {
	spans, err := trace.ChunkSpans(data)
	if err != nil {
		return nil
	}
	cuts := make([]int, 0, len(spans)+1)
	if len(spans) > 0 {
		cuts = append(cuts, spans[0].Start)
	}
	for _, s := range spans {
		cuts = append(cuts, s.End)
	}
	return cuts
}

// Mutate applies one randomly chosen mutation drawn from rng: truncation
// at a random offset, a bit flip, a dropped chunk, or a duplicated chunk.
// It returns the mutated copy and a short description of what it did.
func Mutate(data []byte, rng *rand.Rand) ([]byte, string) {
	if len(data) == 0 {
		return nil, "empty"
	}
	switch rng.Intn(4) {
	case 0:
		n := rng.Intn(len(data) + 1)
		return TruncateAt(data, n), "truncate"
	case 1:
		return FlipBit(data, rng.Intn(8*len(data))), "flipbit"
	case 2:
		if spans, err := trace.ChunkSpans(data); err == nil && len(spans) > 0 {
			return DropChunk(data, rng.Intn(len(spans))), "dropchunk"
		}
		return TruncateAt(data, rng.Intn(len(data)+1)), "truncate"
	default:
		if spans, err := trace.ChunkSpans(data); err == nil && len(spans) > 0 {
			return DuplicateChunk(data, rng.Intn(len(spans))), "dupchunk"
		}
		return FlipBit(data, rng.Intn(8*len(data))), "flipbit"
	}
}
