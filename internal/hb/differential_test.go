package hb

import (
	"math/rand"
	"testing"

	"literace/internal/trace"
)

// raceKey normalizes a dynamic race to a comparable static identity.
type raceKey struct {
	a, b struct {
		f, i int32
	}
}

func keyOf(r DynamicRace) raceKey {
	var k raceKey
	k.a.f, k.a.i = r.PrevPC.Func, r.PrevPC.Index
	k.b.f, k.b.i = r.CurPC.Func, r.CurPC.Index
	if k.b.f < k.a.f || (k.b.f == k.a.f && k.b.i < k.a.i) {
		k.a, k.b = k.b, k.a
	}
	return k
}

func staticSet(races []DynamicRace) map[raceKey]int {
	out := make(map[raceKey]int)
	for _, r := range races {
		out[keyOf(r)]++
	}
	return out
}

// randomLog builds a random but well-formed multithreaded log: a mix of
// lock/unlock (paired per thread so lock semantics are plausible),
// atomics, fork edges, and reads/writes over a small address pool.
func randomLog(seed int64) *trace.Log {
	r := rand.New(rand.NewSource(seed))
	b := newLogBuilder()
	nthreads := int32(2 + r.Intn(4))
	locks := []uint64{0x100, 0x110, 0x120}
	addrs := []uint64{0x200, 0x201, 0x202, 0x203}
	held := make(map[int32]uint64) // thread -> currently held lock (0 = none)

	// Fork edges from thread 1 to the others.
	for tid := int32(2); tid <= nthreads; tid++ {
		tv := trace.ThreadVar(tid)
		b.sync(1, trace.KindRelease, trace.OpFork, tv)
		b.sync(tid, trace.KindAcquire, trace.OpForkChild, tv)
	}

	n := 150 + r.Intn(150)
	for i := 0; i < n; i++ {
		tid := 1 + r.Int31n(nthreads)
		switch r.Intn(6) {
		case 0:
			if held[tid] == 0 {
				lk := locks[r.Intn(len(locks))]
				held[tid] = lk
				b.sync(tid, trace.KindAcquire, trace.OpLock, lk)
			}
		case 1:
			if lk := held[tid]; lk != 0 {
				held[tid] = 0
				b.sync(tid, trace.KindRelease, trace.OpUnlock, lk)
			}
		case 2:
			b.sync(tid, trace.KindAcqRel, trace.OpCas, addrs[r.Intn(len(addrs))]+0x1000)
		case 3, 4:
			b.mem(tid, trace.KindWrite, addrs[r.Intn(len(addrs))], 0xFFFF)
		default:
			b.mem(tid, trace.KindRead, addrs[r.Intn(len(addrs))], 0xFFFF)
		}
	}
	return b.log()
}

// TestDifferentialDetectors cross-checks the optimized epoch-based
// detector against the full-vector-clock reference on random logs: both
// must report exactly the same dynamic races.
func TestDifferentialDetectors(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		log := randomLog(seed)
		fast, err := Detect(log, Options{SamplerBit: AllEvents})
		if err != nil {
			t.Fatalf("seed %d fast: %v", seed, err)
		}
		ref, err := DetectReference(log, Options{SamplerBit: AllEvents})
		if err != nil {
			t.Fatalf("seed %d ref: %v", seed, err)
		}
		if fast.NumRaces != ref.NumRaces {
			t.Errorf("seed %d: fast %d races, reference %d", seed, fast.NumRaces, ref.NumRaces)
		}
		fs, rs := staticSet(fast.Races), staticSet(ref.Races)
		if len(fs) != len(rs) {
			t.Fatalf("seed %d: static sets differ: %d vs %d", seed, len(fs), len(rs))
		}
		for k, n := range fs {
			if rs[k] != n {
				t.Fatalf("seed %d: key %+v count %d vs %d", seed, k, n, rs[k])
			}
		}
		if fast.MemOps != ref.MemOps || fast.SyncOps != ref.SyncOps {
			t.Errorf("seed %d: op counts differ", seed)
		}
	}
}

// TestDifferentialWithMaskFiltering repeats the cross-check under sampler
// filtering (random masks).
func TestDifferentialWithMaskFiltering(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed ^ 0x5aa5))
		log := randomLog(seed)
		// Scatter random masks over the memory events.
		for _, evs := range log.Threads {
			for i := range evs {
				if evs[i].Kind.IsMem() {
					evs[i].Mask = uint32(r.Intn(4))
				}
			}
		}
		for bit := 0; bit < 2; bit++ {
			fast, err := Detect(log, Options{SamplerBit: bit})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := DetectReference(log, Options{SamplerBit: bit})
			if err != nil {
				t.Fatal(err)
			}
			if fast.NumRaces != ref.NumRaces {
				t.Errorf("seed %d bit %d: %d vs %d races", seed, bit, fast.NumRaces, ref.NumRaces)
			}
		}
	}
}

// TestReferenceOnPaperExamples sanity-checks the reference detector on the
// Figure 1 scenarios directly.
func TestReferenceOnPaperExamples(t *testing.T) {
	b := newLogBuilder()
	b.sync(1, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.sync(1, trace.KindRelease, trace.OpUnlock, lockVar)
	b.sync(2, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	b.sync(2, trace.KindRelease, trace.OpUnlock, lockVar)
	res, err := DetectReference(b.log(), Options{SamplerBit: AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != 0 {
		t.Errorf("reference reported %d races on ordered writes", res.NumRaces)
	}

	b2 := newLogBuilder()
	b2.mem(1, trace.KindWrite, x, 0xFFFF)
	b2.mem(2, trace.KindWrite, x, 0xFFFF)
	res, err = DetectReference(b2.log(), Options{SamplerBit: AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != 1 {
		t.Errorf("reference reported %d races on unordered writes", res.NumRaces)
	}
}

// FuzzDetectReference replays random seeded traces, optionally under a
// sampler mask and with evidence and near-miss capture on, through the
// detector and the reference detector: both must report the same static
// race multiset and the same race, memory and sync counts.
func FuzzDetectReference(f *testing.F) {
	f.Add(int64(1), int8(-1), false)
	f.Add(int64(42), int8(-1), true)
	f.Add(int64(7), int8(0), true)
	f.Add(int64(1234567), int8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, bit int8, evidence bool) {
		log := randomLog(seed)
		sb := AllEvents
		if bit >= 0 {
			sb = int(bit % 2)
			r := rand.New(rand.NewSource(seed ^ 0x5aa5))
			for _, evs := range log.Threads {
				for i := range evs {
					if evs[i].Kind.IsMem() {
						evs[i].Mask = uint32(r.Intn(4))
					}
				}
			}
		}
		got, err := Detect(log, Options{SamplerBit: sb, Evidence: evidence, NearMissMargin: DefaultNearMissMargin})
		if err != nil {
			t.Fatal(err)
		}
		want, err := DetectReference(log, Options{SamplerBit: sb})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRaces != want.NumRaces || got.MemOps != want.MemOps || got.SyncOps != want.SyncOps {
			t.Fatalf("seed %d bit %d: counters diverge: detector {races %d mem %d sync %d} reference {races %d mem %d sync %d}",
				seed, sb, got.NumRaces, got.MemOps, got.SyncOps, want.NumRaces, want.MemOps, want.SyncOps)
		}
		gs, ws := staticSet(got.Races), staticSet(want.Races)
		if len(gs) != len(ws) {
			t.Fatalf("seed %d bit %d: %d static races, reference %d", seed, sb, len(gs), len(ws))
		}
		for k, n := range gs {
			if ws[k] != n {
				t.Fatalf("seed %d bit %d: race %+v seen %d times, reference %d", seed, sb, k, n, ws[k])
			}
		}
	})
}
