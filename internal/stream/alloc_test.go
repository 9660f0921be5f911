package stream_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"literace/internal/stream"
	"literace/internal/trace"
)

// allocBytes returns the fewest bytes f allocated over a few runs (the
// same measure as hb's allocation guards).
func allocBytes(t *testing.T, f func()) uint64 {
	t.Helper()
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	return best
}

// streamPiece is the feed size of the allocation guard and the
// benchmark: the collector's default frame size.
const streamPiece = 64 << 10

// TestStreamDispatchAllocation guards the streaming path's per-event
// allocation on a real full log fed the way the collector feeds it:
// dispatch batches are recycled through the shards' free list and the
// decoder reuses one input buffer, so what remains is decoding each
// event once plus per-thread and per-address state.
func TestStreamDispatchAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-logging benchmark")
	}
	data := genLog(t, mustBench(t, "dryad"), 1, 0)
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	events := log.NumEvents()
	for _, shards := range []int{1, 4} {
		n := allocBytes(t, func() { runPipeline(t, data, shards, []int{streamPiece}) })
		perEvent := float64(n) / float64(events)
		t.Logf("%d shards: %d events, %d bytes allocated (%.1f B/event)", shards, events, n, perEvent)
		if perEvent > 96 {
			t.Errorf("%d shards: streaming allocated %.1f B/event, want at most 96", shards, perEvent)
		}
	}
}

var benchResult *stream.Result

// BenchmarkStreamPipeline times the whole streaming path — decode,
// merge, clock engine, shards and Finish — over a full dryad log fed in
// collector-frame pieces.
func BenchmarkStreamPipeline(b *testing.B) {
	data := genLog(b, mustBench(b, "dryad"), 1, 0)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchResult = runPipeline(b, data, shards, []int{streamPiece})
			}
		})
	}
}
