package hb

import (
	"fmt"

	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/shadow"
	"literace/internal/trace"
)

// Engine names select the memory-access analysis core backing a
// detection pass. Both engines share the sync-clock side (vector clocks,
// happens-before edges, evidence capture) and report byte-identical race
// sets; the vector-clock core is the differential oracle for the epoch
// core.
const (
	// EngineVC is the vector-clock detector, the default.
	EngineVC = "vc"
	// EngineEpoch is the epoch fast-path core in internal/shadow:
	// O(1) same-epoch/ordered decisions over a word-granular
	// open-addressed shadow-memory table.
	EngineEpoch = "epoch"
)

// ValidEngine reports whether name selects a known detection engine.
// The empty string selects EngineVC.
func ValidEngine(name string) bool {
	return name == "" || name == EngineVC || name == EngineEpoch
}

func checkEngine(name string) error {
	if !ValidEngine(name) {
		return fmt.Errorf("unknown detection engine %q (valid: %s, %s)", name, EngineVC, EngineEpoch)
	}
	return nil
}

// DynamicRace is one detected conflicting access pair: the earlier access
// (in the replayed order) is Prev, the later one is Cur, and neither
// happens-before the other. At least one of the two is a write.
type DynamicRace struct {
	PrevPC    lir.PC
	CurPC     lir.PC
	PrevWrite bool
	CurWrite  bool
	PrevTID   int32
	CurTID    int32
	Addr      uint64

	// PrevSeq and CurSeq are the 1-based ordinals of the two accesses
	// within their respective threads' analyzed memory events. When the
	// pass analyzes every logged access (SamplerBit == AllEvents) these
	// match the per-thread logged-memory ordinals the runtime's coverage
	// collector records, so a race can be attributed to the sampling
	// burst(s) that captured each side (coverprof.Collector.BurstOf).
	// Under a mask-filtered pass the ordinals count only the filtered
	// subset and do not line up with runtime coverage.
	PrevSeq uint64
	CurSeq  uint64

	// Unconfirmed marks a race first observed after the detector entered
	// degraded mode (MarkDegraded): some happens-before edge may have
	// been lost with the damaged part of the log, so the pair could be a
	// false positive. The paper's zero-false-positive guarantee (§4)
	// holds only for confirmed races.
	Unconfirmed bool

	// PrevEvidence and CurEvidence carry the forensic snapshots of the
	// two accesses when Options.Evidence is set; nil otherwise. The
	// snapshots are immutable and byte-comparable between the batch
	// detector and the streaming pipeline.
	PrevEvidence *AccessEvidence
	CurEvidence  *AccessEvidence
}

// Edge is one cross-thread happens-before edge: a release by FromTID on
// sync var Var that a later acquire by ToTID synchronized with. The
// releasing event is identified by its (Counter, TS) pair, which is
// unique across the whole log (per-counter timestamps are dense), so
// consumers can map the edge back to a concrete logged event.
type Edge struct {
	Var     uint64 // sync var address
	Counter uint8  // timestamp counter of the release event
	TS      uint64 // timestamp of the release event within Counter
	FromTID int32  // releasing thread
	ToTID   int32  // acquiring thread
	FromPC  lir.PC // program counter of the release
	ToPC    lir.PC // program counter of the acquire
}

// Options configures a detection pass.
type Options struct {
	// SamplerBit filters memory events: only events whose Mask has this
	// bit set are analyzed. Use AllEvents to analyze every logged access.
	// Synchronization events are always processed (§3.2: all sync ops are
	// logged precisely so no subset introduces false positives).
	SamplerBit int

	// OnRace, when non-nil, is invoked for each dynamic race as it is
	// found (streaming consumers); races are also accumulated in Result.
	OnRace func(DynamicRace)

	// OnEdge, when non-nil, is invoked for each cross-thread
	// happens-before edge as an acquire synchronizes with an earlier
	// release by a different thread. Same-thread release/acquire pairs
	// are not reported (program order already covers them). Edge
	// tracking costs one map entry per sync var and is skipped entirely
	// when OnEdge is nil.
	OnEdge func(Edge)

	// KeepMax bounds the number of dynamic races retained in
	// Result.Races; 0 means unlimited. Counting is never truncated.
	KeepMax int

	// Obs, when non-nil, receives detection telemetry: processed event
	// counts, vector-clock join counts, dynamic races found, and (via
	// Detect) replay ready-queue stalls.
	Obs *obs.Registry

	// Evidence enables forensic evidence capture: every reported race
	// carries an immutable AccessEvidence snapshot for both accesses
	// (vector clock, last release/acquire, held lockset). Costs one
	// small allocation per tracked access; off by default.
	Evidence bool

	// NearMissMargin enables near-miss analytics when positive: every
	// cross-thread conflicting pair that IS ordered by happens-before,
	// with strictly fewer than NearMissMargin clock ticks of slack, is
	// counted per static PC pair (Result.NearMisses and the
	// hb.near_miss.* obs family). 0 (the default) disables.
	NearMissMargin int

	// Engine selects the memory-access analysis core: EngineVC (also
	// the empty string) or EngineEpoch. Detect and DetectDegraded
	// reject unknown names; NewDetector treats any non-epoch value as
	// the vector-clock core.
	Engine string

	// ShadowMaxCells bounds the epoch engine's shadow-memory table
	// (see shadow.Options.MaxCells); 0 means unbounded. Only the
	// unbounded default preserves exact parity with the vector-clock
	// oracle — a bounded table may miss races, never invent them.
	ShadowMaxCells int

	// ShadowDepot, when non-nil, is the stack depot the epoch engine
	// interns race identities into; share one to deduplicate across
	// detectors. Ignored by the vector-clock engine.
	ShadowDepot *shadow.Depot
}

// AllEvents is the SamplerBit value that disables mask filtering.
const AllEvents = -1

// Result is the outcome of a detection pass.
type Result struct {
	Races    []DynamicRace // dynamic race occurrences, in replay order
	NumRaces uint64        // total dynamic races, even beyond KeepMax
	MemOps   uint64        // memory events analyzed (after filtering)
	SyncOps  uint64        // sync events processed

	// Unconfirmed counts the dynamic races (within NumRaces) first
	// observed after the detector entered degraded mode.
	Unconfirmed uint64
	// Degraded reports whether the detector ever entered degraded mode.
	Degraded bool

	// NearMisses lists the ordered conflicting pairs that stayed within
	// Options.NearMissMargin, grouped per static pair and sorted; nil
	// when near-miss analytics were off.
	NearMisses []NearMiss

	// Epoch carries the epoch engine's core statistics when the pass
	// ran under Options.Engine == EngineEpoch; nil under the
	// vector-clock engine.
	Epoch *shadow.Stats
}

// Confirmed returns the dynamic races found while every happens-before
// edge was still intact — the subset the zero-false-positive guarantee
// covers.
func (r *Result) Confirmed() uint64 { return r.NumRaces - r.Unconfirmed }

// Detector is a streaming happens-before race detector. Feed it events in
// a legal global order (e.g. via Replay); it reports races through opts.
type Detector struct {
	opts     Options
	res      Result
	degraded bool
	threads  map[int32]*threadState
	vars     map[uint64]VC         // SyncVar -> clock published by last release
	mem      map[uint64]*addrState // address -> access history
	lastRel  map[uint64]relInfo    // SyncVar -> last release, only when OnEdge is set
	near     *NearAccum            // near-miss accumulator; nil when disabled

	// Epoch-engine state (Options.Engine == EngineEpoch): eng replaces
	// the mem map as the access-history store, and tcache is a
	// tid-indexed shortcut past the threads map on the access hot path.
	eng    *shadow.Engine
	tcache []*threadState

	// Telemetry instruments; nil (no-op) when opts.Obs is nil.
	obsJoins *obs.Counter // hb.vc_joins
	obsRaces *obs.Counter // hb.dynamic_races
	obsMem   *obs.Counter // hb.mem_events
	obsSync  *obs.Counter // hb.sync_events
}

type threadState struct {
	vc VC
	// memSeq counts this thread's analyzed memory events (1-based after
	// the first access); see DynamicRace.PrevSeq.
	memSeq uint64

	// Evidence-mode state (maintained only when Options.Evidence): pub is
	// the immutable clock snapshot accesses share until the next sync
	// event dirties it — the same clone-on-write discipline the streaming
	// clock engine uses, so captured clocks are byte-identical.
	pub   VC
	dirty bool
	ev    EvidenceState
}

// relInfo remembers the last release on a sync var so a later acquire
// can be reported as a happens-before edge.
type relInfo struct {
	tid     int32
	pc      lir.PC
	counter uint8
	ts      uint64
}

type readInfo struct {
	epoch
	pc  lir.PC
	seq uint64          // per-thread analyzed-memory ordinal of the read
	ev  *AccessEvidence // forensic snapshot; nil unless Options.Evidence
}

type addrState struct {
	hasWrite bool
	write    epoch
	writePC  lir.PC
	writeSeq uint64          // per-thread analyzed-memory ordinal of the write
	writeEv  *AccessEvidence // forensic snapshot; nil unless Options.Evidence
	reads    []readInfo      // reads since the last ordered write
}

// NewDetector returns a detector with the given options.
func NewDetector(opts Options) *Detector {
	d := &Detector{
		opts:    opts,
		threads: make(map[int32]*threadState),
		vars:    make(map[uint64]VC),
		mem:     make(map[uint64]*addrState),
	}
	if opts.OnEdge != nil {
		d.lastRel = make(map[uint64]relInfo)
	}
	d.near = NewNearAccum(opts.NearMissMargin)
	if opts.Obs != nil {
		d.obsJoins = opts.Obs.Counter("hb.vc_joins")
		d.obsRaces = opts.Obs.Counter("hb.dynamic_races")
		d.obsMem = opts.Obs.Counter("hb.mem_events")
		d.obsSync = opts.Obs.Counter("hb.sync_events")
	}
	if opts.Engine == EngineEpoch {
		so := shadow.Options{
			MaxCells: opts.ShadowMaxCells,
			Depot:    opts.ShadowDepot,
			Obs:      opts.Obs,
			OnRace: func(prev shadow.Prev, cur *shadow.Access, _ int) {
				r := DynamicRace{
					PrevPC: prev.PC, CurPC: cur.PC,
					PrevWrite: prev.Write, CurWrite: cur.Write,
					PrevTID: prev.TID, CurTID: cur.TID,
					PrevSeq: prev.Seq, CurSeq: cur.Seq,
					Addr: cur.Addr,
				}
				if prev.Ev != nil {
					r.PrevEvidence = prev.Ev.(*AccessEvidence)
				}
				if cur.Ev != nil {
					r.CurEvidence = cur.Ev.(*AccessEvidence)
				}
				d.report(r)
			},
		}
		if opts.NearMissMargin > 0 {
			so.OnOrdered = func(prevPC, curPC lir.PC, margin uint64) {
				d.near.Note(prevPC, curPC, margin)
			}
		}
		d.eng = shadow.NewEngine(so)
	}
	return d
}

func (d *Detector) thread(tid int32) *threadState {
	ts := d.threads[tid]
	if ts == nil {
		// A fresh thread starts at clock 1 so its epoch (tid, 1) is not
		// vacuously happens-before everything.
		ts = &threadState{vc: VC{}.Set(tid, 1)}
		d.threads[tid] = ts
	}
	return ts
}

// Process consumes one event.
func (d *Detector) Process(e trace.Event) { d.process(&e) }

// ProcessBatch consumes a pre-materialized event sequence in order. It
// is equivalent to calling Process per element, minus one 40-byte
// event copy per call — at tens of millions of events per second the
// copies are a measurable tax on either engine.
func (d *Detector) ProcessBatch(events []trace.Event) {
	for i := range events {
		d.process(&events[i])
	}
}

// process never retains e past the call.
func (d *Detector) process(e *trace.Event) {
	switch e.Kind {
	case trace.KindAcquire:
		d.res.SyncOps++
		d.obsSync.Inc()
		t := d.thread(e.TID)
		if lv, ok := d.vars[e.Addr]; ok {
			t.vc = t.vc.Join(lv)
			d.obsJoins.Inc()
			d.emitEdge(*e)
		}
		d.noteSync(t, *e)
	case trace.KindRelease:
		d.res.SyncOps++
		d.obsSync.Inc()
		t := d.thread(e.TID)
		d.vars[e.Addr] = d.vars[e.Addr].Join(t.vc)
		d.obsJoins.Inc()
		t.vc = t.vc.Tick(e.TID)
		d.recordRelease(*e)
		d.noteSync(t, *e)
	case trace.KindAcqRel:
		d.res.SyncOps++
		d.obsSync.Inc()
		t := d.thread(e.TID)
		if lv, ok := d.vars[e.Addr]; ok {
			t.vc = t.vc.Join(lv)
			d.obsJoins.Inc()
			d.emitEdge(*e)
		}
		d.vars[e.Addr] = d.vars[e.Addr].Join(t.vc)
		d.obsJoins.Inc()
		t.vc = t.vc.Tick(e.TID)
		d.recordRelease(*e)
		d.noteSync(t, *e)
	case trace.KindRead, trace.KindWrite:
		if d.opts.SamplerBit >= 0 && e.Mask&(1<<uint(d.opts.SamplerBit)) == 0 {
			return
		}
		d.res.MemOps++
		d.obsMem.Inc()
		if d.eng != nil {
			// Dispatch straight into the epoch core: no event copy
			// through d.access, no intermediate frame. Plain runs hop
			// Process -> engine in one register call. The thread-cache
			// hit is open-coded: threadFast just misses the inlining
			// budget, and a call here costs more than the lookup.
			var t *threadState
			if int(e.TID) < len(d.tcache) {
				t = d.tcache[e.TID]
			}
			if t == nil {
				t = d.threadSlow(e.TID)
			}
			t.memSeq++
			switch {
			case d.opts.Evidence:
				d.accessEpochEv(t, e.Addr, e.TID, e.PC, e.Kind == trace.KindWrite)
			case e.Kind == trace.KindWrite:
				d.eng.Write(e.Addr, t.memSeq, e.TID, e.PC, t.vc)
			default:
				d.eng.Read(e.Addr, t.memSeq, e.TID, e.PC, t.vc)
			}
			return
		}
		d.access(e)
	}
}

// recordRelease remembers e as the latest release on its sync var so a
// later acquire can be reported as an edge. No-op unless OnEdge is set.
func (d *Detector) recordRelease(e trace.Event) {
	if d.lastRel == nil {
		return
	}
	d.lastRel[e.Addr] = relInfo{tid: e.TID, pc: e.PC, counter: e.Counter, ts: e.TS}
}

// emitEdge reports the happens-before edge from the last recorded
// release on e.Addr to the acquiring event e, if the release came from
// a different thread.
func (d *Detector) emitEdge(e trace.Event) {
	if d.lastRel == nil {
		return
	}
	rel, ok := d.lastRel[e.Addr]
	if !ok || rel.tid == e.TID {
		return
	}
	d.opts.OnEdge(Edge{
		Var:     e.Addr,
		Counter: rel.counter,
		TS:      rel.ts,
		FromTID: rel.tid,
		ToTID:   e.TID,
		FromPC:  rel.pc,
		ToPC:    e.PC,
	})
}

// noteSync folds a synchronization event into the thread's evidence
// state; no-op unless Options.Evidence. Any sync event invalidates the
// published clock snapshot (clone-on-write at the next access).
func (d *Detector) noteSync(t *threadState, e trace.Event) {
	if !d.opts.Evidence {
		return
	}
	t.dirty = true
	t.ev.OnSync(e)
}

// threadFast is d.thread with a tid-indexed cache in front of the map —
// the epoch core's access hot path resolves the thread in O(1). The
// cache-hit check is small enough to inline at the call site; misses
// fall through to threadSlow.
func (d *Detector) threadFast(tid int32) *threadState {
	if int(tid) < len(d.tcache) {
		if ts := d.tcache[tid]; ts != nil {
			return ts
		}
	}
	return d.threadSlow(tid)
}

func (d *Detector) threadSlow(tid int32) *threadState {
	ts := d.thread(tid)
	for int(tid) >= len(d.tcache) {
		d.tcache = append(d.tcache, nil)
	}
	d.tcache[tid] = ts
	return ts
}

// accessEpoch routes one sampled access through the epoch fast-path
// core. The sync-clock and evidence side is exactly the vector-clock
// path's; only the per-address history analysis differs. Scalar
// arguments keep the hop into the engine in registers.
func (d *Detector) accessEpoch(addr uint64, tid int32, pc lir.PC, isWrite bool) {
	t := d.threadFast(tid)
	t.memSeq++
	if d.opts.Evidence {
		d.accessEpochEv(t, addr, tid, pc, isWrite)
		return
	}
	if isWrite {
		d.eng.Write(addr, t.memSeq, tid, pc, t.vc)
	} else {
		d.eng.Read(addr, t.memSeq, tid, pc, t.vc)
	}
}

// accessEpochEv is the evidence-mode tail of accessEpoch, kept out of
// line so plain runs never pay for the snapshot plumbing.
func (d *Detector) accessEpochEv(t *threadState, addr uint64, tid int32, pc lir.PC, isWrite bool) {
	if t.dirty || t.pub == nil {
		t.pub = t.vc.Clone()
		t.dirty = false
	}
	var evAny any
	if ev := t.ev.Snapshot(t.pub); ev != nil {
		evAny = ev
	}
	if isWrite {
		d.eng.WriteEv(addr, t.memSeq, tid, pc, t.vc, evAny)
	} else {
		d.eng.ReadEv(addr, t.memSeq, tid, pc, t.vc, evAny)
	}
}

func (d *Detector) access(e *trace.Event) {
	if d.eng != nil {
		d.accessEpoch(e.Addr, e.TID, e.PC, e.Kind == trace.KindWrite)
		return
	}
	t := d.thread(e.TID)
	t.memSeq++
	st := d.mem[e.Addr]
	if st == nil {
		st = &addrState{}
		d.mem[e.Addr] = st
	}
	now := epoch{tid: e.TID, clk: t.vc.At(e.TID)}
	isWrite := e.Kind == trace.KindWrite
	var ev *AccessEvidence
	if d.opts.Evidence {
		if t.dirty || t.pub == nil {
			t.pub = t.vc.Clone()
			t.dirty = false
		}
		ev = t.ev.Snapshot(t.pub)
	}

	if st.hasWrite && st.write.tid != e.TID {
		if !st.write.happensBefore(t.vc) {
			d.report(DynamicRace{
				PrevPC: st.writePC, CurPC: e.PC,
				PrevWrite: true, CurWrite: isWrite,
				PrevTID: st.write.tid, CurTID: e.TID,
				PrevSeq: st.writeSeq, CurSeq: t.memSeq,
				Addr:         e.Addr,
				PrevEvidence: st.writeEv, CurEvidence: ev,
			})
		} else {
			d.near.Note(st.writePC, e.PC, t.vc.At(st.write.tid)-st.write.clk)
		}
	}

	if isWrite {
		for _, r := range st.reads {
			if r.tid == e.TID {
				continue
			}
			if !r.happensBefore(t.vc) {
				d.report(DynamicRace{
					PrevPC: r.pc, CurPC: e.PC,
					PrevWrite: false, CurWrite: true,
					PrevTID: r.tid, CurTID: e.TID,
					PrevSeq: r.seq, CurSeq: t.memSeq,
					Addr:         e.Addr,
					PrevEvidence: r.ev, CurEvidence: ev,
				})
			} else {
				d.near.Note(r.pc, e.PC, t.vc.At(r.tid)-r.clk)
			}
		}
		st.hasWrite = true
		st.write = now
		st.writePC = e.PC
		st.writeSeq = t.memSeq
		st.writeEv = ev
		st.reads = st.reads[:0]
		return
	}

	// Record the read, replacing any earlier read by the same thread
	// (program order makes the newer one dominate).
	for i := range st.reads {
		if st.reads[i].tid == e.TID {
			st.reads[i] = readInfo{epoch: now, pc: e.PC, seq: t.memSeq, ev: ev}
			return
		}
	}
	st.reads = append(st.reads, readInfo{epoch: now, pc: e.PC, seq: t.memSeq, ev: ev})
}

// MarkDegraded switches the detector into degraded mode: every race
// reported from now on is tagged unconfirmed. Degraded replay calls it
// the moment an ordering is weakened; it is idempotent.
func (d *Detector) MarkDegraded() {
	d.degraded = true
	d.res.Degraded = true
}

func (d *Detector) report(r DynamicRace) {
	if d.degraded {
		r.Unconfirmed = true
		d.res.Unconfirmed++
	}
	d.res.NumRaces++
	d.obsRaces.Inc()
	if d.opts.OnRace != nil {
		d.opts.OnRace(r)
	}
	if d.opts.KeepMax == 0 || len(d.res.Races) < d.opts.KeepMax {
		d.res.Races = append(d.res.Races, r)
	}
}

// Result returns the accumulated detection result.
func (d *Detector) Result() *Result {
	d.res.NearMisses = d.near.Rows()
	if d.eng != nil {
		s := d.eng.Stats()
		d.res.Epoch = &s
	}
	return &d.res
}

// Shadow returns the epoch engine backing this detector, or nil under
// the vector-clock engine.
func (d *Detector) Shadow() *shadow.Engine { return d.eng }

// publishEpochStats publishes the epoch engine's end-of-pass gauges
// (shadow.cells, shadow.depot_stacks) into Options.Obs; the counters
// (epoch.fastpath_hits, epoch.promotions, shadow.evictions) stream
// live during the pass.
func (d *Detector) publishEpochStats() {
	if d.eng == nil || d.opts.Obs == nil {
		return
	}
	s := d.eng.Stats()
	d.opts.Obs.Gauge("shadow.cells").Set(float64(s.Cells))
	d.opts.Obs.Gauge("shadow.depot_stacks").Set(float64(s.DepotStacks))
}

// PublishNearMisses publishes the accumulated near-miss telemetry into
// Options.Obs. Call it once, after the pass is over; Detect and
// DetectDegraded do so themselves.
func (d *Detector) PublishNearMisses() {
	PublishNearMisses(d.opts.Obs, d.near.Rows())
}

// Detect replays log and runs happens-before detection over it.
func Detect(log *trace.Log, opts Options) (*Result, error) {
	if err := checkEngine(opts.Engine); err != nil {
		return nil, err
	}
	d := NewDetector(opts)
	if err := ReplayObs(log, opts.Obs, func(e trace.Event) error {
		d.Process(e)
		return nil
	}); err != nil {
		return nil, err
	}
	d.PublishNearMisses()
	d.publishEpochStats()
	return d.Result(), nil
}

// DetectDegraded replays a possibly damaged log (see ReplayDegraded) and
// runs happens-before detection over it. Races first observed after the
// replay weakened an ordering are tagged unconfirmed; the confirmed
// subset keeps the no-false-positive guarantee.
func DetectDegraded(log *trace.Log, opts Options) (*Result, *Degradation, error) {
	if err := checkEngine(opts.Engine); err != nil {
		return nil, nil, err
	}
	d := NewDetector(opts)
	deg, err := ReplayDegraded(log, opts.Obs, d.MarkDegraded, func(e trace.Event) error {
		d.Process(e)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	d.PublishNearMisses()
	d.publishEpochStats()
	return d.Result(), deg, nil
}
