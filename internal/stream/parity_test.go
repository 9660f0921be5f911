package stream_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/sampler"
	"literace/internal/stream"
	"literace/internal/trace"
	"literace/internal/workloads"
)

// genLog executes benchmark b at the given scale and seed under full
// logging and returns the encoded LTRC2 log — the same recipe the
// harness uses for its ground-truth runs.
func genLog(t testing.TB, b workloads.Benchmark, seed int64, scale int) []byte {
	t.Helper()
	mod, err := b.Module(scale)
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
		t.Fatalf("%s seed %d: %v", b.Key, seed, err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustBench resolves a benchmark key or fails the test.
func mustBench(t testing.TB, key string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("unknown benchmark %q", key)
	}
	return b
}

// runPipeline feeds data through a streaming pipeline in pieces of the
// given sizes (cycled; {0} means all at once).
func runPipeline(t testing.TB, data []byte, shards int, sizes []int) *stream.Result {
	t.Helper()
	return feedPipeline(t, stream.New(stream.Options{Shards: shards, SamplerBit: hb.AllEvents}), data, sizes)
}

// feedPipeline feeds data through p in pieces of the given sizes
// (cycled; {0} means all at once) and finishes it.
func feedPipeline(t testing.TB, p *stream.Pipeline, data []byte, sizes []int) *stream.Result {
	t.Helper()
	for off, i := 0, 0; off < len(data); i++ {
		n := sizes[i%len(sizes)]
		if n <= 0 || n > len(data)-off {
			n = len(data) - off
		}
		if err := p.Feed(data[off : off+n]); err != nil {
			t.Fatalf("feed: %v", err)
		}
		off += n
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkParity asserts the streaming result matches a batch pass bit for
// bit: the race list (order included), the counts, and the analyzed-op
// totals.
func checkParity(t *testing.T, name string, got *stream.Result, want *hb.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("%s: streaming races differ from batch\nstream: %+v\nbatch:  %+v", name, got.Races, want.Races)
	}
	if got.NumRaces != want.NumRaces || got.Unconfirmed != want.Unconfirmed || got.Degraded != want.Degraded {
		t.Fatalf("%s: counts differ: stream %d/%d unconfirmed (degraded=%v), batch %d/%d (degraded=%v)",
			name, got.NumRaces, got.Unconfirmed, got.Degraded, want.NumRaces, want.Unconfirmed, want.Degraded)
	}
	if got.MemOps != want.MemOps || got.SyncOps != want.SyncOps {
		t.Fatalf("%s: analyzed ops differ: stream %d mem %d sync, batch %d mem %d sync",
			name, got.MemOps, got.SyncOps, want.MemOps, want.SyncOps)
	}
}

// TestStreamParityBenchmarks is the issue's acceptance gate: over every
// evaluated benchmark and three seeds, streaming detection must report
// exactly the batch result — both fed whole and fed through a torn live
// tail that later completes.
func TestStreamParityBenchmarks(t *testing.T) {
	for _, b := range workloads.Evaluated() {
		b := b
		t.Run(b.Key, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2, 3} {
				data := genLog(t, b, seed, 1)
				log, err := trace.ReadAll(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				want, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents})
				if err != nil {
					t.Fatal(err)
				}

				whole := runPipeline(t, data, 4, []int{0})
				checkParity(t, "whole", whole, want)
				if !whole.Complete {
					t.Fatal("complete log not recognized as complete")
				}
				if whole.Degradation.Degraded() {
					t.Fatalf("pristine log degraded: %s", whole.Degradation.String())
				}
				if !reflect.DeepEqual(whole.Meta, log.Meta) {
					t.Fatalf("meta differs: stream %+v batch %+v", whole.Meta, log.Meta)
				}

				// A live tail: cut mid-log (usually mid-chunk), feed the
				// prefix, then the rest.
				cut := len(data) / 3
				torn := runPipeline(t, data, 4, []int{cut, len(data) - cut})
				checkParity(t, "torn-then-completed", torn, want)

				// Fine-grained feeding must not change anything.
				drip := runPipeline(t, data, 4, []int{4 << 10})
				checkParity(t, "drip", drip, want)
			}
		})
	}
}

// TestStreamShardCountInvariance pins the partitioning correctness: any
// shard count yields the identical ordered race list.
func TestStreamShardCountInvariance(t *testing.T) {
	b := mustBench(t, "apache-1")
	data := genLog(t, b, 1, 1)
	base := runPipeline(t, data, 1, []int{0})
	for _, shards := range []int{2, 3, 8} {
		got := runPipeline(t, data, shards, []int{0})
		if !reflect.DeepEqual(got.Races, base.Races) {
			t.Fatalf("%d shards: races differ from 1 shard", shards)
		}
		var total uint64
		for _, n := range got.ShardEvents {
			total += n
		}
		if total != got.Dispatched || got.Dispatched != got.MemOps {
			t.Fatalf("%d shards: %d shard events, %d dispatched, %d mem ops",
				shards, total, got.Dispatched, got.MemOps)
		}
	}
}

// TestStreamDamagedParity checks the degraded path: on bit-flipped and
// truncated logs the pipeline must equal Salvage + DetectDegraded — same
// races, same confirmed/unconfirmed split, same degradation accounting,
// same salvage report.
func TestStreamDamagedParity(t *testing.T) {
	b := mustBench(t, "apache-2")
	data := genLog(t, b, 2, 1)
	r := rand.New(rand.NewSource(41))
	mutants := [][]byte{data[:len(data)/2], data[:len(data)-3]}
	for i := 0; i < 12; i++ {
		mut := append([]byte(nil), data...)
		mut[64+r.Intn(len(mut)-64)] ^= 1 << uint(r.Intn(8))
		mutants = append(mutants, mut)
	}
	for i, mut := range mutants {
		slog, srep, err := trace.Salvage(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		want, wdeg, err := hb.DetectDegraded(slog, hb.Options{SamplerBit: hb.AllEvents})
		if err != nil {
			t.Fatal(err)
		}
		got := runPipeline(t, mut, 4, []int{0, 777})
		checkParity(t, "damaged", got, want)
		if got.Degradation != *wdeg {
			t.Fatalf("mutant %d: degradation %+v != batch %+v", i, got.Degradation, *wdeg)
		}
		if !reflect.DeepEqual(got.Salvage, srep) {
			t.Fatalf("mutant %d: salvage report %+v != batch %+v", i, got.Salvage, srep)
		}
	}
}

// TestStreamOnRaceCallback checks the incremental reporting hook: every
// race in the final result was also delivered via OnRace.
func TestStreamOnRaceCallback(t *testing.T) {
	b := mustBench(t, "apache-1")
	data := genLog(t, b, 3, 1)
	var live int
	p := stream.New(stream.Options{
		SamplerBit: hb.AllEvents,
		OnRace:     func(hb.DynamicRace) { live++ },
	})
	if err := p.Feed(data); err != nil {
		t.Fatal(err)
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(live) != res.NumRaces {
		t.Fatalf("OnRace fired %d times, result has %d races", live, res.NumRaces)
	}
	if res.NumRaces == 0 {
		t.Fatal("apache workload expected to race")
	}
}

// TestStreamRejectsGarbage checks the failure path shuts the shard
// workers down cleanly.
func TestStreamRejectsGarbage(t *testing.T) {
	p := stream.New(stream.Options{})
	if err := p.Feed([]byte("GIF89a not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := p.Finish(); err == nil {
		t.Fatal("finish on garbage succeeded")
	}
	if err := p.Feed([]byte("x")); err == nil {
		t.Fatal("feed after finish succeeded")
	}
}

// TestStreamEvidenceParity checks evidence capture end to end: a sharded
// pipeline fed whole or in small pieces must report the exact race list
// (order, attribution, evidence) a batch evidence pass reports on the
// same bytes, and its shard engines must account for every access.
func TestStreamEvidenceParity(t *testing.T) {
	for _, key := range []string{"dryad-stdlib", "concrt-msg", "apache-1", "lkrhash"} {
		for _, seed := range []int64{1, 7} {
			data := genLog(t, mustBench(t, key), seed, 1)
			log, err := trace.ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			want, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents, Evidence: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3} {
				for _, piece := range []int{0, 977} {
					p := stream.New(stream.Options{Shards: shards, SamplerBit: hb.AllEvents, Evidence: true})
					got := feedPipeline(t, p, data, []int{piece})
					checkParity(t, fmt.Sprintf("%s seed %d shards %d piece %d", key, seed, shards, piece), got, want)
					if got.Epoch == nil || got.Epoch.Accesses != got.MemOps {
						t.Fatalf("%s seed %d: shard engines report %+v for %d dispatched accesses",
							key, seed, got.Epoch, got.MemOps)
					}
				}
			}
		}
	}
}

// TestStreamEpochNearMissParity checks the per-shard near-miss rows
// merge to the table a batch pass produces.
func TestStreamEpochNearMissParity(t *testing.T) {
	data := genLog(t, mustBench(t, "concrt-sched"), 3, 1)
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents, NearMissMargin: hb.DefaultNearMissMargin})
	if err != nil {
		t.Fatal(err)
	}
	p := stream.New(stream.Options{
		Shards:         3,
		SamplerBit:     hb.AllEvents,
		NearMissMargin: hb.DefaultNearMissMargin,
	})
	got := feedPipeline(t, p, data, []int{0})
	if !reflect.DeepEqual(got.NearMisses, want.NearMisses) {
		t.Fatalf("near-miss rows diverge:\n  stream: %+v\n  batch:  %+v", got.NearMisses, want.NearMisses)
	}
	checkParity(t, "near-miss", got, want)
}

// TestStreamEpochSharedDepot checks the shards deduplicate race
// identities through one shared depot: the interned stack count equals
// the static race count of the whole pass, not a per-shard sum.
func TestStreamEpochSharedDepot(t *testing.T) {
	data := genLog(t, mustBench(t, "dryad-stdlib"), 1, 1)
	res := runPipeline(t, data, 4, []int{0})
	if res.NumRaces == 0 {
		t.Skip("benchmark produced no races at this seed")
	}
	statics := make(map[[4]int32]bool)
	for _, r := range res.Races {
		a, b := r.PrevPC, r.CurPC
		if b.Less(a) {
			a, b = b, a
		}
		statics[[4]int32{a.Func, a.Index, b.Func, b.Index}] = true
	}
	if res.Epoch.DepotStacks != len(statics) {
		t.Fatalf("depot holds %d identities, want %d (distinct static pairs)",
			res.Epoch.DepotStacks, len(statics))
	}
}
