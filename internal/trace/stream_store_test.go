package trace_test

import (
	"bytes"
	"testing"

	"literace"
	"literace/internal/trace"
	"literace/internal/workloads"
)

// TestStreamStoreBounded feeds a full dryad log in small and
// collector-frame pieces: every event must still be decoded, and the
// decoder's one input store must stay below twice the largest chunk plus
// a piece — it compacts the unconsumed tail instead of growing.
func TestStreamStoreBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-logging benchmark")
	}
	b, ok := workloads.ByKey("dryad")
	if !ok {
		t.Fatal("dryad benchmark missing")
	}
	prog, err := literace.Assemble(b.Key, b.Source(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Instrument(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prog.Run(literace.Config{Sampler: "Full", Seed: 1, LogTo: &buf}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	largest := trace.LargestChunk(data)
	if largest <= 0 {
		t.Fatal("log has no chunks")
	}

	for _, piece := range []int{1 << 10, 64 << 10} {
		events, peak := 0, 0
		s := trace.NewStream(func(_ int32, evs []trace.Event, _ bool) { events += len(evs) })
		for off := 0; off < len(data); off += piece {
			if err := s.Feed(data[off:min(off+piece, len(data))]); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, s.StoreCap())
		}
		rep, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Lossy() || events != log.NumEvents() {
			t.Fatalf("%d-byte pieces: decoded %d of %d events (%s)", piece, events, log.NumEvents(), rep.Summary())
		}
		if limit := 2 * (largest + piece); peak >= limit {
			t.Errorf("%d-byte pieces: store grew to %d bytes, want under %d (largest chunk %d)",
				piece, peak, limit, largest)
		}
		t.Logf("%d-byte pieces: store peak %d bytes, largest chunk %d, log %d bytes", piece, peak, largest, len(data))
	}
}
