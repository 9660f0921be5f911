package hb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"literace/internal/trace"
)

// goldenDetect pins what the detector reports on randomLog traces, per
// option set: every seed's ordered race list with all DynamicRace fields
// and the evidence behind each side, its near-miss rows, and its
// counters, hashed in seed order. The degraded set enters degraded mode
// at the replay midpoint, so unconfirmed tagging is pinned as well.
var goldenDetect = []struct {
	name   string
	seeds  int64
	opts   Options
	digest string
}{
	{"plain", 150, Options{SamplerBit: AllEvents},
		"b8b3da6eb640504b3317d7065708a3c4dd46a455cca32a44254f265b38797c85"},
	{"evidence-near-miss", 60, Options{SamplerBit: AllEvents, Evidence: true, NearMissMargin: DefaultNearMissMargin},
		"8c6d7d5bda034c654d15f5393ba04257375218f2f9166914e952fe030ae0cbbd"},
	{"degraded", 40, Options{SamplerBit: AllEvents, Evidence: true},
		"9d7c7ef7fe19bc9d21380418cf0a29d8dcf6b7fbb8a1997d33a290210304a406"},
}

func TestDetectGoldenDigests(t *testing.T) {
	for _, c := range goldenDetect {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			var unconfirmed uint64
			for seed := int64(0); seed < c.seeds; seed++ {
				var res *Result
				if c.name == "degraded" {
					res = detectDegradedAtMidpoint(t, seed, c.opts)
					unconfirmed += res.Unconfirmed
				} else {
					var err error
					if res, err = Detect(randomLog(seed), c.opts); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				if res.Epoch == nil || res.Epoch.Accesses != res.MemOps {
					t.Fatalf("seed %d: engine stats %+v do not account for %d accesses", seed, res.Epoch, res.MemOps)
				}
				fmt.Fprintf(h, "seed %d\n", seed)
				hashResult(h, res)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
			if c.name == "degraded" && unconfirmed == 0 {
				t.Fatal("no seed produced an unconfirmed race; the test is vacuous")
			}
		})
	}
}

// detectDegradedAtMidpoint runs randomLog(seed) through one detector and
// marks it degraded halfway through the replay.
func detectDegradedAtMidpoint(t *testing.T, seed int64, opts Options) *Result {
	t.Helper()
	total := 0
	if err := Replay(randomLog(seed), func(trace.Event) error {
		total++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d := NewDetector(opts)
	n := 0
	if err := Replay(randomLog(seed), func(e trace.Event) error {
		if n == total/2 {
			d.MarkDegraded()
		}
		n++
		d.Process(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return d.Result()
}

// hashResult writes every reported field of res into h.
func hashResult(h hash.Hash, res *Result) {
	ev := func(e *AccessEvidence) string {
		if e == nil {
			return "-"
		}
		return fmt.Sprintf("%+v", *e)
	}
	fmt.Fprintf(h, "races %d unconfirmed %d degraded %t mem %d sync %d\n",
		res.NumRaces, res.Unconfirmed, res.Degraded, res.MemOps, res.SyncOps)
	for _, r := range res.Races {
		fmt.Fprintf(h, "%v %v %t %t %d %d %#x %d %d %t %s %s\n",
			r.PrevPC, r.CurPC, r.PrevWrite, r.CurWrite, r.PrevTID, r.CurTID, r.Addr,
			r.PrevSeq, r.CurSeq, r.Unconfirmed, ev(r.PrevEvidence), ev(r.CurEvidence))
	}
	for _, nm := range res.NearMisses {
		fmt.Fprintf(h, "near %v %v %d %d\n", nm.A, nm.B, nm.Count, nm.MinMargin)
	}
}
