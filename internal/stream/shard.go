package stream

import (
	"sync/atomic"
	"time"

	"literace/internal/hb"
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/shadow"
)

// memAccess is one sampled memory event as dispatched to a shard: the
// decoded event fields it needs, the immutable snapshot of its thread's
// vector clock at access time, and the ordinals that make the sharded
// results mergeable back into replay order.
type memAccess struct {
	ord   uint64 // global dispatch ordinal (replay order of analyzed mem events)
	seq   uint64 // per-thread analyzed-memory ordinal (hb.DynamicRace.*Seq)
	addr  uint64
	tid   int32
	write bool
	pc    lir.PC
	vc    hb.VC              // immutable; shared across dispatches until the thread's clock changes
	ev    *hb.AccessEvidence // forensic snapshot; nil unless Options.Evidence
}

// shardRace is a race found by a shard, tagged with the ordinal of the
// access that triggered it and its index among the races that access
// produced, so the global merge can restore exact replay-order reporting.
type shardRace struct {
	r   hb.DynamicRace
	ord uint64
	sub int
}

// shard is one detection worker: it owns the access histories of the
// addresses hashed to it and processes their events strictly in dispatch
// order, so its view of each address is identical to a batch detector's.
type shard struct {
	idx        int
	ch         chan []memAccess
	free       chan<- []memAccess // finished batches go back to the pipeline
	races      []shardRace
	events     uint64
	degradeOrd *atomic.Uint64
	onRace     func(hb.DynamicRace) // serialized by the pipeline; may be nil
	near       *hb.NearAccum        // near-miss accumulator; nil when disabled
	evCnt      *obs.Counter         // stream.shard_events.<idx>
	rec        *diag.Recorder       // flight recorder; may be nil

	// eng is this shard's access-history store, and curOrd carries the
	// dispatch ordinal of the access under analysis into the race
	// callback.
	eng    *shadow.Engine
	curOrd uint64
}

// attachEngine gives this shard its access-history engine. The depot is
// shared across all shards so race identities deduplicate globally; the
// obs counters are shared too, and each shard flushes into them after
// every batch.
func (s *shard) attachEngine(depot *shadow.Depot, opts Options) {
	so := shadow.Options{
		Depot: depot,
		Obs:   opts.Obs,
		OnRace: func(prev shadow.Prev, cur *shadow.Access, sub int) {
			s.report(hb.RaceOf(prev, cur), s.curOrd, sub)
		},
	}
	if opts.NearMissMargin > 0 {
		so.OnOrdered = func(prevPC, curPC lir.PC, margin uint64) {
			s.near.Note(prevPC, curPC, margin)
		}
	}
	s.eng = shadow.NewEngine(so)
}

func (s *shard) run(done chan<- struct{}) {
	for batch := range s.ch {
		var t0 time.Time
		if s.rec != nil {
			t0 = time.Now()
		}
		for _, a := range batch {
			s.access(a)
		}
		s.events += uint64(len(batch))
		s.evCnt.Add(uint64(len(batch)))
		s.eng.Flush()
		if s.rec != nil {
			s.rec.Span(diag.StageShardDetect, int32(s.idx), t0, time.Since(t0),
				batch[len(batch)-1].ord, uint64(len(batch)))
		}
		// The batch is no longer read; hand it back for reuse, or drop it
		// if the free list is full rather than wait on the pipeline.
		select {
		case s.free <- batch:
		default:
		}
	}
	done <- struct{}{}
}

// access hands one dispatched access to the engine, with its evidence
// snapshot when the pipeline captures evidence.
func (s *shard) access(a memAccess) {
	s.curOrd = a.ord
	switch {
	case a.ev != nil && a.write:
		s.eng.WriteEv(a.addr, a.seq, a.tid, a.pc, a.vc, a.ev)
	case a.ev != nil:
		s.eng.ReadEv(a.addr, a.seq, a.tid, a.pc, a.vc, a.ev)
	case a.write:
		s.eng.Write(a.addr, a.seq, a.tid, a.pc, a.vc)
	default:
		s.eng.Read(a.addr, a.seq, a.tid, a.pc, a.vc)
	}
}

func (s *shard) report(r hb.DynamicRace, ord uint64, sub int) {
	if ord >= s.degradeOrd.Load() {
		r.Unconfirmed = true
	}
	s.races = append(s.races, shardRace{r: r, ord: ord, sub: sub})
	if s.onRace != nil {
		s.onRace(r)
	}
}
