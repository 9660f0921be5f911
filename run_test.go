package literace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"literace/internal/forensics"
	"literace/internal/hb"
	"literace/internal/stream"
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

// goldenRaces pins what detection reports on seeded runs, so a change to
// the happens-before analysis that alters any race, its evidence, a
// near-miss row or a counter fails here. Each digest covers the ordered
// race list with every DynamicRace field (evidence included),
// forensics.EvidenceDigests, the near-miss rows at DefaultNearMissMargin,
// and NumRaces, Unconfirmed, MemOps and SyncOps. The batch detector and
// the streaming pipeline at 1 and 4 shards must all produce the digest.
// A truncated case analyzes the first half of the Full log: batch through
// trace.Salvage and hb.DetectDegraded (the DetectSalvaged pass), and the
// stream over the same bytes, which pins the unconfirmed tagging.
var goldenRaces = []struct {
	bench, sampler string
	truncated      bool
	digest         string
}{
	{"dryad", "TL-Ad", false,
		"3f428eb72ce954255d928b9a68d90a6f493e0024ca1a07277767f95af7134ede"},
	{"dryad", "Full", false,
		"4b6d99e51444282ff2c14af726545c946f346f3cc3ffb2c9c6b2e16d70742e56"},
	{"dryad", "G-Ad", false,
		"e24ed648f91ffb4d2f6e068a19f77d897d7681a9c1336aa8c308b4b18744abb4"},
	{"apache-1", "TL-Ad", false,
		"93fa2918b88bc1ae43767319d8a0da76227ec7686aed723f7138bc386e6e2957"},
	{"apache-1", "Full", false,
		"9b238bc7c5f09d0afe7e34f556b63ca2d1696dd9edf3cf85ade87a7725ec0b94"},
	{"apache-1", "G-Ad", false,
		"687faac9f5f94901df21e3b67c8db9c76c27d919602a206ea063dca6fa4f069a"},
	{"concrt-msg", "TL-Ad", false,
		"1e51a04b4a0c6376608b6cb8affde4414487310ae373d8de48decb58608e9d16"},
	{"concrt-msg", "Full", false,
		"5e5789bd58df4d2c1e22cafac781a5ea5f0d5959497dc7d65409c4312a8dca83"},
	{"concrt-msg", "G-Ad", false,
		"1a7db26936f6073838c3493cb07d50a824336cb6a6624c527e793a1f57df5744"},
	{"firefox-render", "TL-Ad", false,
		"035919c391cca3545fc74d4541154484aedba23eb44c6b8f113da08a05dd9a8a"},
	{"firefox-render", "Full", false,
		"0dd2ca7c3b33f64fbe73dcafb06109b60eafef8811463fdd8783b2b365fb2e91"},
	{"firefox-render", "G-Ad", false,
		"0572801f845724f70920f4f29c4401e3f76c7c84bbb0bec8da2fe974b27aa87b"},
	{"dryad", "Full", true,
		"1512b50e870dd101390dab22b0e17aad57ca77fca1a417e16f179bde2701297b"},
	{"apache-1", "Full", true,
		"b3568be614f0ab326d0f130a105818c417c286b81fce82f31d86aba8c25b7fe7"},
	{"concrt-msg", "Full", true,
		"d0d293b25d0036c081d8a9d50e54d517270dbd4287be14e8056d5e3f732fd118"},
	{"firefox-render", "Full", true,
		"dfdb6f865a3c095f49cb9f71a5b0eabf365343785bf37335f1c303ddf60a4602"},
}

func TestGoldenRaceDigests(t *testing.T) {
	progs := map[string]*Program{}
	logs := map[string][]byte{}
	opts := hb.Options{SamplerBit: hb.AllEvents, Evidence: true, NearMissMargin: hb.DefaultNearMissMargin}
	var unconfirmed uint64
	for _, c := range goldenRaces {
		name := c.bench + "/" + c.sampler
		if c.truncated {
			name += "/truncated"
		}
		t.Run(name, func(t *testing.T) {
			data := logs[c.bench+"/"+c.sampler]
			if data == nil {
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
				if _, err := p.Run(Config{Sampler: c.sampler, Seed: 1, LogTo: &buf}); err != nil {
					t.Fatal(err)
				}
				data = buf.Bytes()
				logs[c.bench+"/"+c.sampler] = data
			}
			var res *hb.Result
			if c.truncated {
				data = data[:len(data)/2]
				log, _, err := trace.Salvage(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if res, _, err = hb.DetectDegraded(log, opts); err != nil {
					t.Fatal(err)
				}
				unconfirmed += res.Unconfirmed
			} else {
				log, err := trace.ReadAll(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if res, err = hb.Detect(log, opts); err != nil {
					t.Fatal(err)
				}
			}
			if got := raceDigest(res); got != c.digest {
				t.Errorf("batch digest %s, want %s", got, c.digest)
			}
			for _, shards := range []int{1, 4} {
				p := stream.New(stream.Options{
					Shards: shards, SamplerBit: hb.AllEvents,
					Evidence: opts.Evidence, NearMissMargin: opts.NearMissMargin,
				})
				if err := p.Feed(data); err != nil {
					t.Fatal(err)
				}
				sres, err := p.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if got := raceDigest(&sres.Result); got != c.digest {
					t.Errorf("stream digest at %d shards %s, want %s", shards, got, c.digest)
				}
			}
		})
	}
	if unconfirmed == 0 {
		t.Error("no truncated log produced an unconfirmed race; the unconfirmed tagging is not pinned")
	}
}

// raceDigest hashes a detection result: the ordered races with every
// field and the evidence behind each side, the evidence digests, the
// near-miss rows and the counters.
func raceDigest(res *hb.Result) string {
	h := sha256.New()
	ev := func(e *hb.AccessEvidence) string {
		if e == nil {
			return "-"
		}
		return fmt.Sprintf("%+v", *e)
	}
	fmt.Fprintf(h, "races %d unconfirmed %d mem %d sync %d\n", res.NumRaces, res.Unconfirmed, res.MemOps, res.SyncOps)
	for _, r := range res.Races {
		fmt.Fprintf(h, "%v %v %t %t %d %d %#x %d %d %t %s %s\n",
			r.PrevPC, r.CurPC, r.PrevWrite, r.CurWrite, r.PrevTID, r.CurTID, r.Addr,
			r.PrevSeq, r.CurSeq, r.Unconfirmed, ev(r.PrevEvidence), ev(r.CurEvidence))
	}
	digests := forensics.EvidenceDigests(res.Races)
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "evidence %s %s\n", k, digests[k])
	}
	for _, nm := range res.NearMisses {
		fmt.Fprintf(h, "near %v %v %d %d\n", nm.A, nm.B, nm.Count, nm.MinMargin)
	}
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
