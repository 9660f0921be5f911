package literace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"testing"

	"literace/internal/trace"
	"literace/internal/workloads"
)

// goldenRuns pins what a seeded run produces, so a change to the
// interpreter, the dispatch path or the encoder that alters any logged
// event, the chunk order, a print or a run counter fails here. Each
// digest covers the decoded events per thread in TID order, ChunkOrder,
// Prints and the trailer Meta with WallNanos and LoggedBytes zeroed. The
// raw log bytes cannot be hashed: the trailer and the metadata checkpoints
// carry wall time, whose varint length also moves LoggedBytes.
var goldenRuns = []struct {
	bench, sampler string
	seed           int64
	schedTrace     bool
	digest         string
}{
	{"dryad", "TL-Ad", 1, false,
		"70a9a1ddd03ffa7343117777abe0f5c47fd491d42659057fe14d81c38a07561a"},
	{"dryad", "Full", 1, false,
		"09173a09a014da66ad04521d1f1f9740f498bef2bf6cadd0aaaeefb667ebe991"},
	{"dryad", "G-Ad", 1, false,
		"181e15555b18a67c93ccdd16425baa8ba63779971377edc2757130a6962ab6f8"},
	{"apache-1", "TL-Ad", 1, false,
		"646d87a7ce528df0be4c75d220e7b3be74ad2856f62accbc6e65390d752092e1"},
	{"apache-1", "Full", 1, false,
		"c7f98f4c3ac2706bd631e3760f58d9cd202ce8a77c19f94a1600307e1b47bc93"},
	{"apache-1", "G-Ad", 1, false,
		"26eb7e85d9045cbba46d27c5588d45c5855c733d24e47dbd41d2e80ba5a96cb1"},
	{"concrt-msg", "TL-Ad", 1, false,
		"642fda195f5a7cc1f18927214a7afc6d1076b3ba78c43becfae45d72cb362c2d"},
	{"concrt-msg", "Full", 1, false,
		"fb614c214c36d430c770197880c25c9ccfa54ffc593cb3f38c59abdd90ebe90f"},
	{"concrt-msg", "G-Ad", 1, false,
		"b0afb8863708b21c48f4976c816edcd7911759b35d1d870f84353228513e69b0"},
	{"firefox-render", "TL-Ad", 1, false,
		"89d46c5c8b7b378dbd58235f8b5b1f476490aacf92505557da8221d391fc5950"},
	{"firefox-render", "Full", 1, false,
		"b631c6379a459578cd67400b0bb599bc67814504c05850dfd26f683fe8ad587b"},
	{"firefox-render", "G-Ad", 1, false,
		"ea21a4c831d4aa6cf8479da77f708e3676b98a03d4ba8a2ab798778635dffd9c"},
	{"dryad", "TL-Ad", 1, true,
		"ab1bccd268dcb9c5e37cdd6d6c7ed963a87f7b4b7255a2dac87d19dfa7d49ce7"},
}

func TestGoldenRunDigests(t *testing.T) {
	progs := map[string]*Program{}
	for _, c := range goldenRuns {
		name := c.bench + "/" + c.sampler
		if c.schedTrace {
			name += "/sched"
		}
		t.Run(name, func(t *testing.T) {
			p := progs[c.bench]
			if p == nil {
				wl, ok := workloads.ByKey(c.bench)
				if !ok {
					t.Fatalf("unknown benchmark %s", c.bench)
				}
				var err error
				if p, err = Assemble(c.bench, wl.Source(0)); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Instrument(); err != nil {
					t.Fatal(err)
				}
				progs[c.bench] = p
			}
			var buf bytes.Buffer
			res, err := p.Run(Config{Sampler: c.sampler, Seed: c.seed, SchedTrace: c.schedTrace, LogTo: &buf})
			if err != nil {
				t.Fatal(err)
			}
			log, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(t, log, res.Prints); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
		})
	}
}

// runDigest hashes a decoded log and the run's prints.
func runDigest(t *testing.T, log *trace.Log, prints []int64) string {
	h := sha256.New()
	var b []byte
	tids := make([]int32, 0, len(log.Threads))
	for tid := range log.Threads {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		evs := log.Threads[tid]
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(tid))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(evs)))
		h.Write(b)
		for _, e := range evs {
			b = append(b[:0], byte(e.Kind), byte(e.Op), e.Counter)
			b = binary.LittleEndian.AppendUint32(b, uint32(e.TID))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.PC.Func))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.PC.Index))
			b = binary.LittleEndian.AppendUint64(b, e.Addr)
			b = binary.LittleEndian.AppendUint64(b, e.TS)
			b = binary.LittleEndian.AppendUint32(b, e.Mask)
			h.Write(b)
		}
	}
	for _, c := range log.ChunkOrder {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(c.TID))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.N))
		h.Write(b)
	}
	b = b[:0]
	for _, p := range prints {
		b = binary.LittleEndian.AppendUint64(b, uint64(p))
	}
	h.Write(b)
	meta := log.Meta
	meta.WallNanos, meta.LoggedBytes = 0, 0
	mj, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(mj)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunAllocation bounds what one instrumented run allocates. The
// interpreter reuses each thread's register stack across calls and maps
// stack pages on first touch, so what is left is mostly the runtime's
// per-thread state and the trace writer's buffers.
func TestRunAllocation(t *testing.T) {
	wl, _ := workloads.ByKey("dryad")
	p, err := Assemble("dryad", wl.Source(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	const limit = 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.Run(Config{Sampler: "TL-Ad", Seed: 3, LogTo: io.Discard}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("one dryad run allocated %d bytes, want at most %d", got, limit)
	} else {
		t.Logf("one dryad run allocated %d bytes", got)
	}
}
