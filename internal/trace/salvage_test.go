package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// buildLog writes a multi-thread, multi-chunk log and returns the encoded
// bytes plus the per-thread event streams it contains.
func buildLog(t *testing.T, seed int64, nThreads, perThread, flushEvery int) ([]byte, map[int32][]Event) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]Event{}
	for tid := int32(0); tid < int32(nThreads); tid++ {
		tw := w.Thread(tid)
		for i := 0; i < perThread; i++ {
			e := randomEvent(r, tid)
			want[tid] = append(want[tid], e)
			if err := tw.Append(e); err != nil {
				t.Fatal(err)
			}
			if flushEvery > 0 && (i+1)%flushEvery == 0 {
				if err := tw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(Meta{Module: "salvage-test", Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// checkRecon asserts the report's documented byte-accounting invariant.
func checkRecon(t *testing.T, rep *SalvageReport) {
	t.Helper()
	if rep.MagicBytes+rep.BytesOK+rep.BytesDropped != rep.TotalBytes {
		t.Errorf("byte accounting broken: magic %d + ok %d + dropped %d != total %d",
			rep.MagicBytes, rep.BytesOK, rep.BytesDropped, rep.TotalBytes)
	}
}

func TestSalvagePristineMatchesReadAll(t *testing.T) {
	data, want := buildLog(t, 1, 3, 200, 64)
	log, rep, err := Salvage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	checkRecon(t, rep)
	if rep.Lossy() {
		t.Errorf("pristine log reported lossy: %s", rep.Summary())
	}
	if rep.MetaSource != "trailer" || log.Meta.Module != "salvage-test" {
		t.Errorf("meta source %q module %q", rep.MetaSource, log.Meta.Module)
	}
	if log.Degraded != nil {
		t.Errorf("pristine log marked degraded: %v", log.Degraded)
	}
	for tid, evs := range want {
		if !reflect.DeepEqual(log.Threads[tid], evs) {
			t.Errorf("thread %d: salvage decoded %d events, want %d", tid, len(log.Threads[tid]), len(evs))
		}
	}
	strict, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if strict.NumEvents() != rep.EventsSalvaged {
		t.Errorf("salvage found %d events, ReadAll %d", rep.EventsSalvaged, strict.NumEvents())
	}
}

// isPrefix reports whether got is a prefix of want.
func isPrefix(got, want []Event) bool {
	if len(got) > len(want) {
		return false
	}
	return len(got) == 0 || reflect.DeepEqual(got, want[:len(got)])
}

func TestSalvageTruncationAtEveryChunkBoundary(t *testing.T) {
	data, want := buildLog(t, 2, 2, 300, 50)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{len(magic)}
	for _, s := range spans {
		cuts = append(cuts, s.End)
	}
	for _, cut := range cuts {
		log, rep, err := Salvage(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		checkRecon(t, rep)
		if rep.Truncated {
			t.Errorf("cut at chunk boundary %d reported mid-chunk truncation", cut)
		}
		if rep.BytesDropped != 0 {
			t.Errorf("cut at boundary %d dropped %d bytes", cut, rep.BytesDropped)
		}
		for tid, evs := range log.Threads {
			if !isPrefix(evs, want[tid]) {
				t.Errorf("cut at %d: thread %d events are not a prefix", cut, tid)
			}
		}
		if cut < len(data) && !rep.Lossy() {
			t.Errorf("cut at %d lost the trailer but reported clean", cut)
		}
	}
}

func TestSalvageTruncationAtRandomOffsets(t *testing.T) {
	data, want := buildLog(t, 3, 2, 300, 50)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		cut := len(magic) + r.Intn(len(data)-len(magic)+1)
		log, rep, err := Salvage(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		checkRecon(t, rep)
		for tid, evs := range log.Threads {
			if !isPrefix(evs, want[tid]) {
				t.Errorf("cut at %d: thread %d events are not a prefix", cut, tid)
			}
		}
	}
}

func TestSalvageBitFlips(t *testing.T) {
	data, want := buildLog(t, 4, 2, 120, 40)
	full := 0
	for _, evs := range want {
		full += len(evs)
	}
	for off := len(magic); off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		log, rep, err := Salvage(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		checkRecon(t, rep)
		if rep.EventsSalvaged > full {
			t.Errorf("flip at %d: salvaged %d events from a log of %d", off, rep.EventsSalvaged, full)
		}
		// One flipped bit damages at most one chunk; every other chunk's
		// events must survive.
		if log.NumEvents() == 0 && full > 0 && rep.ChunksOK == 0 {
			t.Errorf("flip at %d destroyed every chunk", off)
		}
	}
}

func TestSalvageDroppedChunkMarksDegraded(t *testing.T) {
	data, want := buildLog(t, 5, 1, 100, 25) // thread 0: 4 chunks of 25 events
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the second thread chunk of thread 0.
	var th []ChunkSpan
	for _, s := range spans {
		if s.Tag == tagThreadBase {
			th = append(th, s)
		}
	}
	if len(th) < 3 {
		t.Fatalf("expected >=3 thread chunks, got %d", len(th))
	}
	cutStart, cutEnd := th[1].Start, th[1].End
	mut := append([]byte(nil), data[:cutStart]...)
	mut = append(mut, data[cutEnd:]...)

	log, rep, err := Salvage(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	checkRecon(t, rep)
	tl := rep.Threads[0]
	if tl == nil || tl.SeqGaps != 1 {
		t.Fatalf("seq gap not detected: %+v", rep.Threads)
	}
	if !rep.Lossy() {
		t.Error("dropped chunk log reported clean")
	}
	idx, ok := log.Degraded[0]
	if !ok || idx != 25 {
		t.Errorf("Degraded[0] = %d, %v; want 25 (events before the gap)", idx, ok)
	}
	// Events after the gap are still decoded — the replay decides how far
	// to trust them.
	if got, wantN := len(log.Threads[0]), len(want[0])-25; got != wantN {
		t.Errorf("decoded %d events, want %d", got, wantN)
	}
	if !reflect.DeepEqual(log.Threads[0][:25], want[0][:25]) {
		t.Error("pre-gap events corrupted")
	}
}

func TestSalvageDuplicateChunkDropped(t *testing.T) {
	data, want := buildLog(t, 6, 1, 60, 20)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	var first *ChunkSpan
	for i := range spans {
		if spans[i].Tag == tagThreadBase {
			first = &spans[i]
			break
		}
	}
	if first == nil {
		t.Fatal("no thread chunk")
	}
	mut := append([]byte(nil), data[:first.End]...)
	mut = append(mut, data[first.Start:first.End]...) // replay the chunk
	mut = append(mut, data[first.End:]...)

	log, rep, err := Salvage(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	checkRecon(t, rep)
	if rep.DuplicateChunks != 1 {
		t.Errorf("DuplicateChunks = %d", rep.DuplicateChunks)
	}
	if !reflect.DeepEqual(log.Threads[0], want[0]) {
		t.Errorf("duplicate chunk corrupted the stream: %d events, want %d",
			len(log.Threads[0]), len(want[0]))
	}
	if log.Degraded != nil {
		t.Errorf("duplicate marked degraded: %v", log.Degraded)
	}
}

func TestSalvageCheckpointFallback(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetMetaSource(func() Meta { return Meta{Module: "ckpt-module", Seed: 42} })
	tw := w.Thread(0)
	// Write enough to cross checkpointInterval at least once.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3*checkpointInterval/16; i++ {
		if err := tw.Append(randomEvent(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(Meta{Module: "trailer-module"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	var hasCkpt bool
	trailerStart := -1
	for _, s := range spans {
		switch s.Tag {
		case tagCheckpoint:
			hasCkpt = true
		case tagMeta:
			trailerStart = s.Start
		}
	}
	if !hasCkpt {
		t.Fatal("no checkpoint emitted; grow the log")
	}
	if trailerStart < 0 {
		t.Fatal("no trailer")
	}

	// Crash before the trailer: meta must come from the checkpoint.
	log, rep, err := Salvage(bytes.NewReader(data[:trailerStart]))
	if err != nil {
		t.Fatal(err)
	}
	checkRecon(t, rep)
	if rep.MetaSource != "checkpoint" || rep.CheckpointAt == 0 {
		t.Fatalf("meta source %q at %d", rep.MetaSource, rep.CheckpointAt)
	}
	if log.Meta.Module != "ckpt-module" || log.Meta.Seed != 42 {
		t.Errorf("checkpoint meta: %+v", log.Meta)
	}
	if log.Meta.LoggedBytes == 0 {
		t.Error("checkpoint did not record LoggedBytes")
	}
	if !rep.Lossy() {
		t.Error("trailer-less log reported clean")
	}

	// With the full log, the trailer wins.
	_, rep2, err := Salvage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MetaSource != "trailer" {
		t.Errorf("full log meta source %q", rep2.MetaSource)
	}
}

func TestSalvageObsTelemetry(t *testing.T) {
	data, _ := buildLog(t, 9, 1, 80, 20)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one thread chunk's payload so its CRC fails.
	mut := append([]byte(nil), data...)
	for _, s := range spans {
		if s.Tag == tagThreadBase {
			mut[s.End-5] ^= 0x01 // last payload byte
			break
		}
	}
	reg := obsNew()
	_, rep, err := SalvageObs(bytes.NewReader(mut), reg)
	if err != nil {
		t.Fatal(err)
	}
	checkRecon(t, rep)
	if rep.CRCFailures == 0 {
		t.Fatalf("corruption not detected: %s", rep.Summary())
	}
	snap := reg.Snapshot()
	if snap.Counters["trace.crc_failures"] != uint64(rep.CRCFailures) {
		t.Errorf("trace.crc_failures = %d, report says %d",
			snap.Counters["trace.crc_failures"], rep.CRCFailures)
	}
	if snap.Counters["trace.salvaged_chunks"] != uint64(rep.ChunksOK) {
		t.Errorf("trace.salvaged_chunks = %d, report says %d",
			snap.Counters["trace.salvaged_chunks"], rep.ChunksOK)
	}
}

func TestSalvageBadMagic(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("NOPE!\n"), []byte("LTRC3\nxxxx")} {
		if _, _, err := Salvage(bytes.NewReader(data)); err == nil {
			t.Errorf("salvage accepted %q", data)
		}
	}
}

// TestReadAllBoundedAllocation feeds headers whose length fields lie about
// gigantic payloads; the decoders must reject them without allocating.
func TestReadAllBoundedAllocation(t *testing.T) {
	// LTRC2: length beyond maxChunkLen is rejected outright.
	v2 := append([]byte(magic), chunkMarker[:]...)
	v2 = binary.AppendUvarint(v2, tagThreadBase)
	v2 = binary.AppendUvarint(v2, 1<<40)
	if _, err := ReadAll(bytes.NewReader(v2)); err == nil {
		t.Error("LTRC2 accepted a 1TB chunk length")
	}
}
