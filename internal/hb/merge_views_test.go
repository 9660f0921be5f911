package hb

import (
	"math/rand"
	"reflect"
	"testing"

	"literace/internal/trace"
)

// arrival is one chunk of a thread's stream as it reaches the merger;
// suspect is the chunk-relative suspect offset passed to Add.
type arrival struct {
	tid     int32
	evs     []trace.Event
	suspect int
}

// mergeRun is everything observable about one merge.
type mergeRun struct {
	order  []trace.Event
	stalls uint64
	hwm    int
	deg    Degradation
	finErr string
	runErr string
}

// randomArrivals cuts every thread of log into random chunks and
// interleaves them in a random order that keeps each thread's chunks in
// program order. When suspectTID is present in the log, its stream turns
// suspect at suspectAt.
func randomArrivals(r *rand.Rand, log *trace.Log, suspectTID int32, suspectAt int) []arrival {
	var pending [][]arrival
	for _, tid := range log.TIDs() {
		evs := log.Threads[tid]
		var chunks []arrival
		for start := 0; start < len(evs); {
			end := start + 1 + r.Intn(12)
			if end > len(evs) {
				end = len(evs)
			}
			a := arrival{tid: tid, evs: evs[start:end], suspect: end - start}
			if tid == suspectTID && suspectAt < end {
				a.suspect = suspectAt - start
				if a.suspect < 0 {
					a.suspect = 0
				}
			}
			chunks = append(chunks, a)
			start = end
		}
		pending = append(pending, chunks)
	}
	var out []arrival
	for len(pending) > 0 {
		i := r.Intn(len(pending))
		out = append(out, pending[i][0])
		if pending[i] = pending[i][1:]; len(pending[i]) == 0 {
			pending = append(pending[:i], pending[i+1:]...)
		}
	}
	return out
}

// split cuts a into pieces of random length, each copied into its own
// allocation so the merger cannot coalesce them back into one view.
func split(r *rand.Rand, a arrival) []arrival {
	var out []arrival
	for start := 0; start < len(a.evs); {
		end := start + 1 + r.Intn(4)
		if end > len(a.evs) {
			end = len(a.evs)
		}
		p := arrival{tid: a.tid, evs: append([]trace.Event(nil), a.evs[start:end]...), suspect: end - start}
		switch {
		case a.suspect <= start:
			p.suspect = 0
		case a.suspect < end:
			p.suspect = a.suspect - start
		}
		out = append(out, p)
		start = end
	}
	return out
}

// runMerge adds each group of pieces, pumps once per group, and
// finishes. Each group is one arrival: pieces of a group reach the
// merger back to back, as one chunk would.
func runMerge(groups [][]arrival, degraded bool) mergeRun {
	var run mergeRun
	opts := MergerOptions{}
	if degraded {
		opts.Degraded = &run.deg
	}
	m := NewMerger(opts)
	fn := func(e trace.Event) error { run.order = append(run.order, e); return nil }
	for _, g := range groups {
		for _, p := range g {
			if err := m.Add(p.tid, p.evs, p.suspect); err != nil {
				run.runErr = err.Error()
				return run
			}
		}
		if err := m.Pump(fn); err != nil {
			run.runErr = err.Error()
			return run
		}
	}
	if err := m.Finish(fn); err != nil {
		run.finErr = err.Error()
	}
	run.stalls, run.hwm = m.Stalls(), m.BacklogHighWater()
	return run
}

// dropSyncEvent removes one random sync event from log, leaving a
// timestamp slot no stream can fill.
func dropSyncEvent(r *rand.Rand, log *trace.Log) {
	tids := log.TIDs()
	for tries := 0; tries < 100; tries++ {
		tid := tids[r.Intn(len(tids))]
		evs := log.Threads[tid]
		if len(evs) == 0 {
			continue
		}
		i := r.Intn(len(evs))
		if evs[i].Kind.IsSync() {
			log.Threads[tid] = append(evs[:i:i], evs[i+1:]...)
			return
		}
	}
}

// TestMergerChunkViewsMatchOneSlice feeds the same arrivals to the
// merger twice: once with each arrival as a single slice, once with each
// arrival cut into separately allocated pieces added back to back. The
// merger keeps pieces as queued views, so delivery order, stalls, the
// backlog high-water mark and (in degraded mode) the Degradation must
// all be identical.
func TestMergerChunkViewsMatchOneSlice(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		log := randomLog(seed)
		degraded := seed%2 == 1
		suspectTID, suspectAt := int32(-1), 0
		if degraded {
			dropSyncEvent(r, log)
			suspectTID = 1 + r.Int31n(int32(len(log.Threads)))
			suspectAt = r.Intn(len(log.Threads[suspectTID]) + 1)
		}
		arrivals := randomArrivals(r, log, suspectTID, suspectAt)
		whole := make([][]arrival, len(arrivals))
		pieces := make([][]arrival, len(arrivals))
		for i, a := range arrivals {
			whole[i] = []arrival{a}
			pieces[i] = split(r, a)
		}
		want := runMerge(whole, degraded)
		got := runMerge(pieces, degraded)
		if want.finErr != "" || want.runErr != "" {
			t.Fatalf("seed %d: reference merge failed: %q %q", seed, want.runErr, want.finErr)
		}
		if len(want.order) != log.NumEvents() {
			t.Fatalf("seed %d: reference delivered %d of %d events", seed, len(want.order), log.NumEvents())
		}
		if !reflect.DeepEqual(got, want) {
			if !reflect.DeepEqual(got.order, want.order) {
				t.Fatalf("seed %d: delivery order diverges (%d vs %d events)", seed, len(got.order), len(want.order))
			}
			t.Fatalf("seed %d: chunk views %+v, one slice %+v",
				seed, summarize(got), summarize(want))
		}
		if degraded && want.deg.SuspectEvents == 0 && suspectAt < len(log.Threads[suspectTID]) {
			t.Fatalf("seed %d: suspect stream delivered no suspect events", seed)
		}
	}
}

// TestMergerSuspectInsideQueuedChunk pins the suspect position when the
// suspect chunk arrives behind chunks still queued for its thread: the
// offset counts every queued event, not just the chunk being drained.
func TestMergerSuspectInsideQueuedChunk(t *testing.T) {
	// Thread 1 blocks on ts 2 of counter 0, which thread 2 delivers last,
	// so all three of thread 1's chunks are queued when the third (whose
	// second event is the first suspect one) arrives.
	mem := func(addr uint64) trace.Event {
		return trace.Event{TID: 1, Kind: trace.KindWrite, Addr: addr, Mask: 1}
	}
	c1 := []trace.Event{{TID: 1, Kind: trace.KindAcquire, Addr: 9, Counter: 0, TS: 2}, mem(1)}
	c2 := []trace.Event{mem(2), mem(3)}
	c3 := []trace.Event{mem(4), mem(5), mem(6)}
	c4 := []trace.Event{{TID: 2, Kind: trace.KindRelease, Addr: 9, Counter: 0, TS: 1}}

	deg := &Degradation{}
	m := NewMerger(MergerOptions{Degraded: deg})
	var order []uint64
	fn := func(e trace.Event) error { order = append(order, e.Addr); return nil }
	for _, step := range []struct {
		tid     int32
		evs     []trace.Event
		suspect int
	}{{1, c1, 2}, {1, c2, 2}, {1, c3, 1}, {2, c4, 1}} {
		if err := m.Add(step.tid, step.evs, step.suspect); err != nil {
			t.Fatal(err)
		}
		if err := m.Pump(fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Finish(fn); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{9, 9, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
	// Events 5 and 6 of thread 1 (absolute indexes 5 and 6) are suspect.
	if deg.SuspectEvents != 2 {
		t.Fatalf("suspect events = %d, want 2 (%s)", deg.SuspectEvents, deg)
	}
}

func summarize(r mergeRun) map[string]any {
	return map[string]any{
		"events": len(r.order), "stalls": r.stalls, "hwm": r.hwm,
		"deg": r.deg, "finErr": r.finErr, "runErr": r.runErr,
	}
}
