package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"

	"literace/internal/lir"
	"literace/internal/obs"
)

// obsNew keeps the telemetry tests terse.
func obsNew() *obs.Registry { return obs.New() }

func TestCounterOfInRangeAndSpread(t *testing.T) {
	seen := make(map[uint8]bool)
	for i := uint64(0); i < 10000; i++ {
		c := CounterOf(i)
		if int(c) >= NumCounters {
			t.Fatalf("counter %d out of range", c)
		}
		seen[c] = true
	}
	if len(seen) < NumCounters {
		t.Errorf("only %d/%d counters used across 10k syncvars", len(seen), NumCounters)
	}
	// Deterministic.
	if CounterOf(42) != CounterOf(42) {
		t.Error("CounterOf not deterministic")
	}
}

func TestSyncVarNamespaces(t *testing.T) {
	// Thread, page, and plain-address SyncVars must never collide.
	addrs := []uint64{0, 1, 512, 1 << 20}
	for _, a := range addrs {
		tv := ThreadVar(int32(a))
		pv := PageVar(a)
		if tv == a || pv == a || tv == pv {
			t.Errorf("namespace collision for %d: thread=%#x page=%#x", a, tv, pv)
		}
	}
	if ThreadVar(1) == ThreadVar(2) || PageVar(1) == PageVar(2) {
		t.Error("distinct ids collide within a namespace")
	}
}

func TestKindClassification(t *testing.T) {
	if !KindRead.IsMem() || !KindWrite.IsMem() {
		t.Error("read/write should be memory kinds")
	}
	for _, k := range []Kind{KindAcquire, KindRelease, KindAcqRel} {
		if k.IsMem() || !k.IsSync() {
			t.Errorf("%v misclassified", k)
		}
	}
	if KindRead.IsSync() {
		t.Error("read is not sync")
	}
}

func TestStringers(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for o := SyncOp(0); o < numSyncOps; o++ {
		if strings.HasPrefix(o.String(), "syncop(") {
			t.Errorf("syncop %d has no name", o)
		}
	}
	mem := Event{Kind: KindWrite, TID: 3, Addr: 0x10, Mask: 5}
	if !strings.Contains(mem.String(), "write") {
		t.Errorf("event string %q", mem.String())
	}
	syn := Event{Kind: KindRelease, Op: OpUnlock, TID: 1, Addr: 0x20, Counter: 7, TS: 9}
	if !strings.Contains(syn.String(), "unlock") {
		t.Errorf("event string %q", syn.String())
	}
}

func randomEvent(r *rand.Rand, tid int32) Event {
	e := Event{
		TID:  tid,
		PC:   lir.PC{Func: int32(r.Intn(100)), Index: int32(r.Intn(1000))},
		Addr: uint64(r.Int63()),
	}
	switch r.Intn(5) {
	case 0:
		e.Kind, e.Mask = KindRead, uint32(r.Intn(256))
	case 1:
		e.Kind, e.Mask = KindWrite, uint32(r.Intn(256))
	case 2:
		e.Kind, e.Op = KindAcquire, OpLock
		e.Counter, e.TS = uint8(r.Intn(NumCounters)), uint64(r.Intn(1<<20))+1
	case 3:
		e.Kind, e.Op = KindRelease, OpUnlock
		e.Counter, e.TS = uint8(r.Intn(NumCounters)), uint64(r.Intn(1<<20))+1
	default:
		e.Kind, e.Op = KindAcqRel, OpCas
		e.Counter, e.TS = uint8(r.Intn(NumCounters)), uint64(r.Intn(1<<20))+1
	}
	return e
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]Event{}
	for tid := int32(0); tid < 4; tid++ {
		tw := w.Thread(tid)
		n := 100 + r.Intn(2000)
		for i := 0; i < n; i++ {
			e := randomEvent(r, tid)
			want[tid] = append(want[tid], e)
			if err := tw.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if tw.Count() != uint64(n) {
			t.Errorf("thread %d count = %d, want %d", tid, tw.Count(), n)
		}
	}
	meta := Meta{
		Module: "m", Seed: 7, Threads: 4, MemOps: 123, SyncOps: 45,
		Samplers: []string{"TL-Ad", "Rnd10"}, SampledOps: []uint64{10, 50},
		Primary: "Full",
	}
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}

	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta.Module != "m" || log.Meta.Seed != 7 || log.Meta.Primary != "Full" {
		t.Errorf("meta round trip failed: %+v", log.Meta)
	}
	if log.Meta.LoggedBytes == 0 {
		t.Error("LoggedBytes not recorded")
	}
	for tid, evs := range want {
		got := log.Threads[tid]
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("thread %d events differ (%d vs %d)", tid, len(got), len(evs))
		}
	}
	if log.NumEvents() == 0 {
		t.Error("NumEvents = 0")
	}
	tids := log.TIDs()
	if !reflect.DeepEqual(tids, []int32{0, 1, 2, 3}) {
		t.Errorf("TIDs = %v", tids)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		var want []Event
		tw := w.Thread(1)
		for i := 0; i < int(n); i++ {
			e := randomEvent(r, 1)
			want = append(want, e)
			if tw.Append(e) != nil {
				return false
			}
		}
		if w.Close(Meta{}) != nil {
			return false
		}
		log, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		got := log.Threads[1]
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedFlushesPreserveThreadOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Thread(0), w.Thread(1)
	var wantA, wantB []Event
	for i := 0; i < 5000; i++ {
		ea := Event{Kind: KindRead, TID: 0, Addr: uint64(i)}
		eb := Event{Kind: KindWrite, TID: 1, Addr: uint64(i)}
		wantA = append(wantA, ea)
		wantB = append(wantB, eb)
		if err := a.Append(ea); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(eb); err != nil {
			t.Fatal(err)
		}
		if i%777 == 0 {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Threads[0], wantA) || !reflect.DeepEqual(log.Threads[1], wantB) {
		t.Error("interleaved flushes corrupted per-thread order")
	}
}

func TestDoubleCloseFails(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(Meta{}); err == nil {
		t.Error("second Close should fail")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE!\n")},
		{"no meta", []byte(magic)},
		{"truncated chunk", append([]byte(magic), 1, 100)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadAll(bytes.NewReader(c.data)); err == nil {
				t.Errorf("ReadAll accepted %s", c.name)
			}
		})
	}
}

// TestLTRC1Rejected feeds every decoder a log in the legacy LTRC1 format,
// which nothing reads any more: each must reject it with an error that
// names the format.
func TestLTRC1Rejected(t *testing.T) {
	data := append([]byte(magicV1), 0, 2, '{', '}') // a metadata chunk alone
	_, rerr := ReadAll(bytes.NewReader(data))
	_, _, serr := Salvage(bytes.NewReader(data))
	_, cerr := ChunkSpans(data)
	ferr := NewStream(nil).Feed(data)
	for name, err := range map[string]error{"ReadAll": rerr, "Salvage": serr, "ChunkSpans": cerr, "Stream.Feed": ferr} {
		if err == nil || !strings.Contains(err.Error(), "LTRC1") {
			t.Errorf("%s: error %v does not name LTRC1", name, err)
		}
	}
}

// TestReadAllFirstErrorInByteOrder writes two CRC-valid chunks that hold
// an undecodable event, in different threads. Whichever comes first in
// the input, and however many workers decode, ReadAll must return that
// chunk's error; Salvage must keep both chunks' good prefix and mark
// each thread degraded from there.
func TestReadAllFirstErrorInByteOrder(t *testing.T) {
	good := Event{Kind: KindWrite, Addr: 8, Mask: 1}
	// A bad chunk carries one good event, then an event whose kind
	// (thread 1) or op (thread 2) is out of range.
	badEvent := map[int32][]byte{
		1: {byte(numKinds), 0, 0, 0, 0, 0},
		2: {byte(KindAcquire), byte(numSyncOps), 0, 0, 0, 0, 0},
	}
	wantErr := map[int32]string{1: "bad event kind", 2: "bad sync op"}
	const bigger = 5000
	for _, first := range []int32{1, 2} {
		second := 3 - first
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// The thread whose bad chunk comes second is far larger, so it
		// is decoded first and a decoder reporting errors in the order
		// its workers meet them would name the wrong chunk.
		for i := 0; i < bigger; i++ {
			if err := w.Thread(second).Append(good); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Thread(second).Flush(); err != nil {
			t.Fatal(err)
		}
		for _, tid := range []int32{first, second} {
			tw := w.Thread(tid)
			tw.seq++
			payload := binary.AppendUvarint(nil, tw.seq)
			payload = appendEvent(payload, good)
			payload = append(payload, badEvent[tid]...)
			if err := w.flushChunk(uint64(tid)+tagThreadBase, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(Meta{Module: "bad-events"}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()

		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			_, err := ReadAll(bytes.NewReader(data))
			log, rep, serr := Salvage(bytes.NewReader(data))
			runtime.GOMAXPROCS(prev)
			if err == nil || !strings.Contains(err.Error(), wantErr[first]) {
				t.Errorf("GOMAXPROCS %d, thread %d's chunk first: ReadAll error %v, want %q",
					procs, first, err, wantErr[first])
			}
			if serr != nil {
				t.Fatal(serr)
			}
			checkRecon(t, rep)
			for tid, n := range map[int32]int{first: 1, second: bigger + 1} {
				if len(log.Threads[tid]) != n || log.Degraded[tid] != n {
					t.Errorf("GOMAXPROCS %d: salvaged thread %d: %d events, degraded from %v; want %d and %d",
						procs, tid, len(log.Threads[tid]), log.Degraded[tid], n, n)
				}
			}
			if want := int64(len(badEvent[1]) + len(badEvent[2])); rep.BytesDropped != want {
				t.Errorf("GOMAXPROCS %d: salvage dropped %d bytes, want the %d of the bad events",
					procs, rep.BytesDropped, want)
			}
		}
	}
}

// TestEventSize pins the in-memory event layout: decode and merge move
// every event, so the field order keeps the byte-sized fields packed.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 40", got)
	}
}

// TestReadAllReaders decodes one log through every kind of reader
// ReadAll sizes its buffer for (and one it cannot size): the results
// must be identical.
func TestReadAllReaders(t *testing.T) {
	data, want := buildLog(t, 12, 3, 400, 50)
	path := filepath.Join(t.TempDir(), "log.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	readers := map[string]io.Reader{
		"bytes.Reader":   bytes.NewReader(data),
		"bytes.Buffer":   bytes.NewBuffer(data),
		"strings.Reader": strings.NewReader(string(data)),
		"os.File":        f,
		"unsized":        iotest.OneByteReader(bytes.NewReader(data)),
	}
	var ref *Log
	for name, r := range readers {
		log, err := ReadAll(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(log.Threads, want) {
			t.Fatalf("%s: decoded threads differ from the written events", name)
		}
		if ref == nil {
			ref = log
		} else if !reflect.DeepEqual(log, ref) {
			t.Fatalf("%s: decoded log differs", name)
		}
	}
	if _, err := ReadAll(iotest.ErrReader(errors.New("disk on fire"))); err == nil {
		t.Error("ReadAll ignored a read error")
	}
}

func TestCorruptEventRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	tw := w.Thread(0)
	if err := tw.Append(Event{Kind: KindRead, Addr: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip the kind byte of the first event to an invalid value. The first
	// chunk begins right after the magic: tag, len, then the event.
	idx := len(magic) + 2
	data[idx] = 0xEE
	if _, err := ReadAll(bytes.NewReader(data)); err == nil {
		t.Error("corrupt kind byte accepted")
	}
}

func TestMetaHelpers(t *testing.T) {
	m := Meta{
		MemOps:     1000,
		Samplers:   []string{"TL-Ad", "Rnd10"},
		SampledOps: []uint64{18, 99},
	}
	if r := m.EffectiveRate(0); r != 0.018 {
		t.Errorf("EffectiveRate(0) = %v", r)
	}
	if r := m.EffectiveRate(5); r != 0 {
		t.Errorf("EffectiveRate out of range = %v", r)
	}
	if m.SamplerIndex("Rnd10") != 1 || m.SamplerIndex("nope") != -1 {
		t.Error("SamplerIndex broken")
	}
	var zero Meta
	if zero.EffectiveRate(0) != 0 {
		t.Error("zero Meta EffectiveRate should be 0")
	}
}

// TestFlushAtBufferBoundary drives a thread buffer exactly to the flush
// threshold and checks chunks split there without losing or reordering
// events.
func TestFlushAtBufferBoundary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tw := w.Thread(0)

	// Grow the buffer to just below the threshold, then step over it.
	e := Event{Kind: KindWrite, PC: lir.PC{Func: 1, Index: 2}, Addr: 0x1234, Mask: 0x7F}
	n := 0
	for len(tw.buf) < flushThreshold-len(appendEvent(nil, e)) {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if got := w.BytesWritten(); got != uint64(len(magic)) {
		t.Fatalf("flushed before threshold: %d bytes", got)
	}
	// Crossing the threshold flushes exactly once, emptying the buffer.
	for i := 0; i < 2; i++ {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
		n++
	}
	afterCross := w.BytesWritten()
	if afterCross <= uint64(len(magic)) {
		t.Fatal("threshold crossing did not flush")
	}
	if len(tw.buf) == 0 || len(tw.buf) >= flushThreshold {
		t.Fatalf("post-flush buffer length %d", len(tw.buf))
	}

	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.NumEvents() != n {
		t.Fatalf("decoded %d events, appended %d", log.NumEvents(), n)
	}
}

// TestEmptyFlushIsNoop checks Flush on an empty buffer emits nothing: no
// zero-length chunks, no byte growth, no spurious telemetry.
func TestEmptyFlushIsNoop(t *testing.T) {
	reg := obsNew()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetObs(reg)
	tw := w.Thread(7)
	for i := 0; i < 3; i++ {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.BytesWritten(); got != uint64(len(magic)) {
		t.Fatalf("empty flush wrote %d bytes", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["trace.chunks_flushed"] != 0 || snap.Counters["trace.thread_flushes.t7"] != 0 {
		t.Fatalf("empty flush counted: %v", snap.Counters)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(&buf); err != nil {
		t.Fatalf("log with only a trailer unreadable: %v", err)
	}
}

// TestWriterTelemetry checks the SetObs counters agree with ground truth:
// bytes match BytesWritten, every event is counted, and per-thread flushes
// are attributed to the right thread.
func TestWriterTelemetry(t *testing.T) {
	reg := obsNew()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetObs(reg)
	a, b := w.Thread(0), w.Thread(1)
	e := Event{Kind: KindRead, Addr: 9}
	for i := 0; i < 10; i++ {
		if err := a.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil { // explicit mid-run flush
		t.Fatal(err)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["trace.events_appended"] != 11 {
		t.Errorf("events_appended = %d", snap.Counters["trace.events_appended"])
	}
	if snap.Counters["trace.bytes_written"] != w.BytesWritten() {
		t.Errorf("bytes_written = %d, writer says %d",
			snap.Counters["trace.bytes_written"], w.BytesWritten())
	}
	// Chunks: thread 0's explicit flush, thread 1's close flush, the meta
	// trailer.
	if snap.Counters["trace.chunks_flushed"] != 3 {
		t.Errorf("chunks_flushed = %d", snap.Counters["trace.chunks_flushed"])
	}
	if snap.Counters["trace.thread_flushes.t0"] != 1 || snap.Counters["trace.thread_flushes.t1"] != 1 {
		t.Errorf("per-thread flushes: %v", snap.Counters)
	}
}

func TestBytesWrittenGrows(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	before := w.BytesWritten()
	tw := w.Thread(0)
	for i := 0; i < 10000; i++ {
		if err := tw.Append(Event{Kind: KindRead, Addr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() <= before {
		t.Error("BytesWritten did not grow")
	}
	if int(w.BytesWritten()) != buf.Len() {
		t.Errorf("BytesWritten = %d, buffer has %d", w.BytesWritten(), buf.Len())
	}
}
