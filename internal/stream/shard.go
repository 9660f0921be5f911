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

// readRec and writeRec mirror hb's FastTrack-style compact access
// history: a scalar (tid, clock) epoch plus the attribution fields a race
// report needs.
type readRec struct {
	tid int32
	clk uint64
	pc  lir.PC
	seq uint64
	ev  *hb.AccessEvidence // nil unless evidence mode
}

type addrHist struct {
	hasWrite bool
	wTID     int32
	wClk     uint64
	wPC      lir.PC
	wSeq     uint64
	wEv      *hb.AccessEvidence // nil unless evidence mode
	reads    []readRec          // reads since the last ordered write
}

// shard is one detection worker: it owns the access histories of the
// addresses hashed to it and processes their events strictly in dispatch
// order, so its view of each address is identical to a batch detector's.
type shard struct {
	idx        int
	ch         chan []memAccess
	free       chan<- []memAccess // finished batches go back to the pipeline
	mem        map[uint64]*addrHist
	races      []shardRace
	events     uint64
	degradeOrd *atomic.Uint64
	onRace     func(hb.DynamicRace) // serialized by the pipeline; may be nil
	near       *hb.NearAccum        // near-miss accumulator; nil when disabled
	evCnt      *obs.Counter         // stream.shard_events.<idx>
	rec        *diag.Recorder       // flight recorder; may be nil

	// Epoch-engine state (Options.Engine == hb.EngineEpoch): eng
	// replaces the mem map as this shard's access-history store, and
	// curOrd carries the dispatch ordinal of the access under analysis
	// into the race callback.
	eng    *shadow.Engine
	curOrd uint64
}

// attachEpoch routes this shard's accesses through an epoch fast-path
// engine instead of the vector-clock history map. The depot is shared
// across all shards so race identities deduplicate globally; the obs
// counters are shared too (atomic increments).
func (s *shard) attachEpoch(depot *shadow.Depot, opts Options) {
	so := shadow.Options{
		MaxCells: opts.ShadowMaxCells,
		Depot:    depot,
		Obs:      opts.Obs,
		OnRace: func(prev shadow.Prev, cur *shadow.Access, sub int) {
			r := hb.DynamicRace{
				PrevPC: prev.PC, CurPC: cur.PC,
				PrevWrite: prev.Write, CurWrite: cur.Write,
				PrevTID: prev.TID, CurTID: cur.TID,
				PrevSeq: prev.Seq, CurSeq: cur.Seq,
				Addr: cur.Addr,
			}
			if prev.Ev != nil {
				r.PrevEvidence = prev.Ev.(*hb.AccessEvidence)
			}
			if cur.Ev != nil {
				r.CurEvidence = cur.Ev.(*hb.AccessEvidence)
			}
			s.report(r, s.curOrd, sub)
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

// access mirrors hb.Detector's per-event analysis exactly, plus the
// same-thread epoch fast path: a write by the thread that already owns
// the address's last write, with no reads pending, cannot race — the
// epoch advances without touching the vector-clock snapshot at all.
func (s *shard) access(a memAccess) {
	if s.eng != nil {
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
		return
	}
	st := s.mem[a.addr]
	if st == nil {
		st = &addrHist{}
		s.mem[a.addr] = st
	}
	if a.write && st.hasWrite && st.wTID == a.tid && len(st.reads) == 0 {
		st.wClk = a.vc.At(a.tid)
		st.wPC = a.pc
		st.wSeq = a.seq
		st.wEv = a.ev
		return
	}
	nowClk := a.vc.At(a.tid)
	sub := 0

	if st.hasWrite && st.wTID != a.tid {
		if st.wClk > a.vc.At(st.wTID) {
			s.report(hb.DynamicRace{
				PrevPC: st.wPC, CurPC: a.pc,
				PrevWrite: true, CurWrite: a.write,
				PrevTID: st.wTID, CurTID: a.tid,
				PrevSeq: st.wSeq, CurSeq: a.seq,
				Addr:         a.addr,
				PrevEvidence: st.wEv, CurEvidence: a.ev,
			}, a.ord, sub)
			sub++
		} else {
			s.near.Note(st.wPC, a.pc, a.vc.At(st.wTID)-st.wClk)
		}
	}

	if a.write {
		for _, r := range st.reads {
			if r.tid == a.tid {
				continue
			}
			if r.clk > a.vc.At(r.tid) {
				s.report(hb.DynamicRace{
					PrevPC: r.pc, CurPC: a.pc,
					PrevWrite: false, CurWrite: true,
					PrevTID: r.tid, CurTID: a.tid,
					PrevSeq: r.seq, CurSeq: a.seq,
					Addr:         a.addr,
					PrevEvidence: r.ev, CurEvidence: a.ev,
				}, a.ord, sub)
				sub++
			} else {
				s.near.Note(r.pc, a.pc, a.vc.At(r.tid)-r.clk)
			}
		}
		st.hasWrite = true
		st.wTID = a.tid
		st.wClk = nowClk
		st.wPC = a.pc
		st.wSeq = a.seq
		st.wEv = a.ev
		st.reads = st.reads[:0]
		return
	}

	// Record the read, replacing any earlier read by the same thread
	// (program order makes the newer one dominate).
	for i := range st.reads {
		if st.reads[i].tid == a.tid {
			st.reads[i] = readRec{tid: a.tid, clk: nowClk, pc: a.pc, seq: a.seq, ev: a.ev}
			return
		}
	}
	st.reads = append(st.reads, readRec{tid: a.tid, clk: nowClk, pc: a.pc, seq: a.seq, ev: a.ev})
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
