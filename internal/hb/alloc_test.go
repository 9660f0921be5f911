package hb_test

import (
	"bytes"
	"runtime"
	"testing"

	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/sampler"
	"literace/internal/trace"
	"literace/internal/workloads"
)

// fullLog executes benchmark key at its default scale under full logging
// and returns the encoded log.
func fullLog(t *testing.T, key string, seed int64) []byte {
	t.Helper()
	b, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("unknown benchmark %q", key)
	}
	mod, err := b.Module(0)
	if err != nil {
		t.Fatal(err)
	}
	rw, _, err := instrument.Rewrite(mod, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs:      len(mod.Funcs),
		Primary:       sampler.NewFull(),
		Writer:        w,
		EnableMemLog:  true,
		EnableSyncLog: true,
		Seed:          seed,
		Cost:          core.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.New(rw, interp.Options{Seed: seed, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatalf("%s seed %d: %v", key, seed, err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocBytes returns the fewest bytes f allocated over a few runs.
func allocBytes(t *testing.T, f func() error) uint64 {
	t.Helper()
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	return best
}

// TestDecodeMergeAllocation guards the zero-copy batch path on a real
// full log: decoding allocates each event once, and the merge keeps
// views of the decoded slices instead of copying them.
func TestDecodeMergeAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-logging benchmark")
	}
	data := fullLog(t, "dryad", 1)
	var log *trace.Log
	decode := allocBytes(t, func() (err error) {
		log, err = trace.ReadAll(bytes.NewReader(data))
		return err
	})
	events := log.NumEvents()
	perEvent := float64(decode) / float64(events)
	t.Logf("trace.ReadAll: %d events, %d bytes allocated (%.1f B/event)", events, decode, perEvent)
	if perEvent > 64 {
		t.Errorf("trace.ReadAll allocated %.1f B/event, want at most 64", perEvent)
	}

	delivered := 0
	merge := allocBytes(t, func() error {
		delivered = 0
		return hb.Replay(log, func(trace.Event) error { delivered++; return nil })
	})
	t.Logf("hb.Replay: %d threads, %d bytes allocated", len(log.Threads), merge)
	if delivered != events {
		t.Fatalf("replay delivered %d of %d events", delivered, events)
	}
	if merge >= 64<<10 {
		t.Errorf("hb.Replay allocated %d bytes, want under 64 KiB (O(threads), not O(events))", merge)
	}
}
