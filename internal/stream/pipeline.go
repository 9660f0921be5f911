// Package stream is the online detection pipeline: it analyzes an LTRC2
// event log while the log is still being written. Four layers compose:
// an incremental chunk decoder (trace.Stream) tails the growing byte
// stream; the shared ready-queue merge engine (hb.Merger) reconstructs a
// legal global order from the chunks as they arrive; a single-threaded
// clock engine applies synchronization events to per-thread vector
// clocks; and sampled memory accesses fan out to detection shards —
// shadow memory partitioned by address — that run the happens-before
// access analysis concurrently.
//
// The pipeline's result is identical, race for race and in the same
// order, to a batch trace.ReadAll/Salvage + hb.Detect/DetectDegraded
// pass over the same bytes. That holds by construction: batch replay and
// this pipeline feed the same chunk sequence (the log's byte order)
// through the same hb.Merger, the clock engine is the synchronization
// half of hb.Detector verbatim, and each address's accesses reach
// exactly one shard in replay order, so every happens-before judgment
// compares the same clocks. A global dispatch ordinal restores the
// replay-order race list when the shards' findings merge.
package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/shadow"
	"literace/internal/trace"
)

// Options configures a Pipeline.
type Options struct {
	// Shards is the number of detection workers (shadow-memory
	// partitions); 0 means DefaultShards.
	Shards int
	// SamplerBit filters memory events as hb.Options.SamplerBit does.
	// NOTE: the zero value selects sampler bit 0; pass hb.AllEvents to
	// analyze every logged access.
	SamplerBit int
	// KeepMax bounds Result.Races as hb.Options.KeepMax does; 0 keeps all.
	KeepMax int
	// BatchSize is the number of memory accesses grouped per shard
	// dispatch; 0 means DefaultBatchSize.
	BatchSize int
	// Obs, when non-nil, receives live pipeline telemetry (the
	// literace_stream_* families; see docs/OBSERVABILITY.md) alongside
	// the usual replay and detection counters.
	Obs *obs.Registry
	// Diag, when non-nil, is the flight recorder: every stage records
	// spans (decode, deliver, clock, dispatch, detect) and every
	// anomaly (CRC failure, seq gap, resync, backpressure, backlog
	// high-watermark, degrade transition) leaves a structured record.
	// Nil disables recording at zero cost.
	Diag *diag.Recorder
	// Log, when non-nil, receives structured warnings for pipeline
	// anomalies (slog; the stream subsystem logger). Nil disables.
	Log *slog.Logger
	// OnRace, when non-nil, is invoked for each dynamic race as a shard
	// finds it. Calls are serialized but arrive in discovery order, which
	// under sharding is not replay order; Result.Races is the canonical
	// ordered list.
	OnRace func(hb.DynamicRace)
	// Evidence enables forensic evidence capture, exactly as
	// hb.Options.Evidence does: every reported race carries immutable
	// AccessEvidence snapshots byte-identical to a batch pass.
	Evidence bool
	// NearMissMargin enables near-miss analytics as
	// hb.Options.NearMissMargin does; the per-shard accumulators merge at
	// Finish into the same rows a batch pass produces.
	NearMissMargin int
	// Engine selects the per-shard memory-access analysis core:
	// hb.EngineVC (also the empty string, the default) or
	// hb.EngineEpoch, which routes every shard's accesses through an
	// epoch fast-path engine (internal/shadow) sharing one stack depot.
	// Race sets stay byte-identical either way. Callers validate the
	// name (hb.ValidEngine); New treats unknown values as the default.
	Engine string
	// ShadowMaxCells bounds each shard's shadow-memory table under the
	// epoch engine; 0 (unbounded) preserves exact parity with the
	// vector-clock core.
	ShadowMaxCells int
}

// DefaultShards is the shard count when Options.Shards is 0.
const DefaultShards = 4

// ShardEventsCounterPrefix and ShardUtilGaugePrefix name the per-shard
// instrument families: stream.shard_events.<i> counts the accesses shard
// i processed (live) and stream.shard_util.<i> is its share of all
// dispatched accesses (set at Finish). The Prometheus encoder folds each
// family into one labeled series, e.g.
// literace_stream_shard_util{shard="0"}.
const (
	ShardEventsCounterPrefix = "stream.shard_events."
	ShardUtilGaugePrefix     = "stream.shard_util."
)

// DefaultBatchSize is the dispatch batch size when Options.BatchSize is 0.
const DefaultBatchSize = 256

// shardChanDepth bounds each shard's inbox (in batches); a full inbox
// backpressures the clock engine, which stream.backpressure counts.
const shardChanDepth = 16

// Result is the outcome of a streaming detection pass.
type Result struct {
	hb.Result

	// Degradation accounts the orderings the merge weakened on a damaged
	// or torn input (zero on a pristine complete log).
	Degradation hb.Degradation
	// Salvage is the decoder's accounting of the bytes consumed.
	Salvage *trace.SalvageReport
	// Meta is the best run metadata available (trailer, else checkpoint).
	Meta trace.Meta
	// Complete reports whether the metadata trailer was seen — the
	// writer's Close ran, so the input was a finished log.
	Complete bool

	// Dispatched counts memory accesses fanned out to shards (equals
	// Result.MemOps), ShardEvents how many each shard processed, and
	// Stalls/Backpressure the reorder and fan-out friction encountered.
	Dispatched   uint64
	ShardEvents  []uint64
	Stalls       uint64
	Backpressure uint64
	// Elapsed and EventsPerSec describe throughput from pipeline creation
	// to Finish (all delivered events, sync included).
	Elapsed      time.Duration
	EventsPerSec float64
}

// Pipeline is an online detection session. Feed it encoded log bytes in
// any pieces (tailing a file, draining a socket); call Finish once the
// input is over to collect the result. Not safe for concurrent use — one
// goroutine feeds; the shards run internally.
type Pipeline struct {
	opts   Options
	shards []*shard
	done   chan struct{}

	// depot is the stack depot the shard epoch engines share; nil under
	// the vector-clock engine.
	depot *shadow.Depot

	dec *trace.Stream
	m   *hb.Merger
	deg hb.Degradation

	threads  map[int32]*clockState
	vars     map[uint64]hb.VC
	degraded bool

	ordinal    uint64 // next mem-access dispatch ordinal
	degradeOrd atomic.Uint64
	pending    [][]memAccess    // per-shard batch under construction
	free       chan []memAccess // batches the shards are done with, for reuse

	res      hb.Result
	raceMu   sync.Mutex
	start    time.Time
	backpres uint64

	finished bool
	finRes   *Result
	finErr   error

	// Flight recorder + structured log (both may be nil).
	rec *diag.Recorder
	log *slog.Logger

	// Anomaly delta tracking: the decoder's SalvageReport counters are
	// cumulative, so each Feed diffs them to turn increases into
	// flight-recorder anomaly records.
	prevCRC     int
	prevGaps    uint64
	prevDropped int64 // bytes
	prevChunks  int   // chunks dropped
	hwmRecorded int   // last backlog HWM recorded as an anomaly

	// Clock-engine accumulators for the current chunk (valid only while
	// rec != nil): wall nanoseconds and ops spent in sync-event clock
	// updates, flushed as one StageClockEngine span per chunk.
	clkNs  int64
	clkOps uint64

	// Live events_per_sec window (fixes the gauge staleness: the rate is
	// refreshed during Feed and decays to zero when Idle is called).
	rateAt        time.Time
	rateDelivered uint64

	// Telemetry; nil-safe when opts.Obs is nil.
	obsBytes    *obs.Counter // stream.bytes
	obsEvents   *obs.Counter // stream.events
	obsDispatch *obs.Counter // stream.mem_dispatched
	obsBackpres *obs.Counter // stream.backpressure
	obsBacklog  *obs.Gauge   // stream.backlog_depth
	obsHWM      *obs.Gauge   // stream.backlog_hwm
	obsStalls   *obs.Gauge   // stream.reorder_stalls
	obsEPS      *obs.Gauge   // stream.events_per_sec
	obsJoins    *obs.Counter // hb.vc_joins
	obsRaces    *obs.Counter // hb.dynamic_races
	obsMem      *obs.Counter // hb.mem_events
	obsSync     *obs.Counter // hb.sync_events
}

// clockState is the producer-side view of one thread: its live vector
// clock plus the immutable snapshot shards read. Sync events mutate vc
// and mark it dirty; the next dispatched access re-snapshots. In
// evidence mode ev tracks the thread's happens-before frontier and held
// lockset (mirrors hb.Detector's threadState exactly).
type clockState struct {
	vc     hb.VC
	pub    hb.VC
	dirty  bool
	memSeq uint64
	ev     hb.EvidenceState
}

// New starts a pipeline: the shard workers launch immediately and idle
// until accesses arrive.
func New(opts Options) *Pipeline {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	p := &Pipeline{
		opts:    opts,
		threads: make(map[int32]*clockState),
		vars:    make(map[uint64]hb.VC),
		pending: make([][]memAccess, opts.Shards),
		// Every batch in circulation fits: per shard, a full inbox, the
		// batch it is analyzing and the one the clock engine is filling.
		free:  make(chan []memAccess, opts.Shards*(shardChanDepth+2)),
		done:  make(chan struct{}, opts.Shards),
		start: time.Now(),
		rec:   opts.Diag,
		log:   opts.Log,
	}
	p.rateAt = p.start
	p.degradeOrd.Store(^uint64(0))
	if reg := opts.Obs; reg != nil {
		p.obsBytes = reg.Counter("stream.bytes")
		p.obsEvents = reg.Counter("stream.events")
		p.obsDispatch = reg.Counter("stream.mem_dispatched")
		p.obsBackpres = reg.Counter("stream.backpressure")
		p.obsBacklog = reg.Gauge("stream.backlog_depth")
		p.obsHWM = reg.Gauge("stream.backlog_hwm")
		p.obsStalls = reg.Gauge("stream.reorder_stalls")
		p.obsEPS = reg.Gauge("stream.events_per_sec")
		p.obsJoins = reg.Counter("hb.vc_joins")
		p.obsRaces = reg.Counter("hb.dynamic_races")
		p.obsMem = reg.Counter("hb.mem_events")
		p.obsSync = reg.Counter("hb.sync_events")
	}
	var onRace func(hb.DynamicRace)
	if opts.OnRace != nil {
		onRace = func(r hb.DynamicRace) {
			p.raceMu.Lock()
			defer p.raceMu.Unlock()
			p.opts.OnRace(r)
		}
	}
	if opts.Engine == hb.EngineEpoch {
		p.depot = shadow.NewDepot()
	}
	for i := 0; i < opts.Shards; i++ {
		s := &shard{
			idx:        i,
			ch:         make(chan []memAccess, shardChanDepth),
			free:       p.free,
			mem:        make(map[uint64]*addrHist),
			degradeOrd: &p.degradeOrd,
			onRace:     onRace,
			near:       hb.NewNearAccum(opts.NearMissMargin),
			evCnt:      opts.Obs.Counter(fmt.Sprintf("%s%d", ShardEventsCounterPrefix, i)),
			rec:        opts.Diag,
		}
		if p.depot != nil {
			s.attachEpoch(p.depot, opts)
		}
		p.shards = append(p.shards, s)
		go s.run(p.done)
	}
	p.m = hb.NewMerger(hb.MergerOptions{
		Obs:       opts.Obs,
		Degraded:  &p.deg,
		OnDegrade: p.onDegrade,
	})
	p.dec = trace.NewStream(p.onChunk)
	return p
}

// onDegrade fires inside the merger before the first event whose
// ordering was weakened is delivered: every access dispatched from now
// on — starting with that event if it is a sampled access — produces
// only unconfirmed races, exactly as hb.Detector.MarkDegraded would.
func (p *Pipeline) onDegrade() {
	if !p.degraded {
		p.degraded = true
		p.res.Degraded = true
		p.degradeOrd.Store(p.ordinal)
		p.rec.Anomaly(diag.AnomDegradeTransition, -1, p.ordinal, p.m.Delivered())
		if p.log != nil {
			p.log.Warn("merge degraded: races from here on are unconfirmed",
				"ordinal", p.ordinal, "delivered", p.m.Delivered())
		}
	}
}

// onChunk receives each accepted thread chunk from the decoder in byte
// order and pumps the merge — the canonical per-chunk cadence batch
// replay follows via trace.Log.ChunkOrder.
func (p *Pipeline) onChunk(tid int32, evs []trace.Event, suspect bool) {
	sf := len(evs)
	if suspect {
		sf = 0
	}
	var t0 time.Time
	var d0 uint64
	if p.rec != nil {
		t0 = time.Now()
		d0 = p.m.Delivered()
		p.clkNs, p.clkOps = 0, 0
	}
	if err := p.m.Add(tid, evs, sf); err != nil {
		// Unreachable in this pipeline — the decoder is finished before
		// the merger — but a misuse must not be silently dropped.
		if p.log != nil {
			p.log.Error("merger rejected chunk", "tid", tid, "err", err)
		}
		return
	}
	// handle never fails, and degraded-mode pumping has no other errors.
	_ = p.m.Pump(p.handle)
	p.obsBacklog.Set(float64(p.m.Backlog()))
	p.obsHWM.Set(float64(p.m.BacklogHighWater()))
	if p.rec != nil {
		delivered := p.m.Delivered()
		p.rec.Span(diag.StageMergerDeliver, tid, t0, time.Since(t0), delivered, delivered-d0)
		if p.clkOps > 0 {
			p.rec.Span(diag.StageClockEngine, tid, t0, time.Duration(p.clkNs), delivered, p.clkOps)
		}
		// A new backlog high watermark at least double the last recorded
		// one (and past a floor) is worth an anomaly record: the merge is
		// buffering badly out-of-order arrivals.
		if hwm := p.m.BacklogHighWater(); hwm >= backlogHWMFloor && hwm >= 2*p.hwmRecorded {
			p.hwmRecorded = hwm
			p.rec.Anomaly(diag.AnomBacklogHighWater, tid, uint64(hwm), delivered)
			if p.log != nil {
				p.log.Warn("merge backlog high watermark", "events", hwm)
			}
		}
	}
}

// backlogHWMFloor is the backlog (events) below which high-watermark
// growth is considered routine and not worth an anomaly record.
const backlogHWMFloor = 1024

// handle is the clock engine: the synchronization half of hb.Detector,
// run single-threaded in merge order, plus the fan-out of sampled memory
// accesses to shards.
func (p *Pipeline) handle(e trace.Event) error {
	p.obsEvents.Inc()
	// Accumulate clock-engine wall time per chunk when the flight
	// recorder is on (one span per chunk, flushed by onChunk).
	var clkT0 time.Time
	clkTimed := p.rec != nil && e.Kind.IsSync()
	if clkTimed {
		clkT0 = time.Now()
	}
	switch e.Kind {
	case trace.KindAcquire:
		p.res.SyncOps++
		p.obsSync.Inc()
		t := p.thread(e.TID)
		if lv, ok := p.vars[e.Addr]; ok {
			t.vc = t.vc.Join(lv)
			t.dirty = true
			p.obsJoins.Inc()
		}
		if p.opts.Evidence {
			t.ev.OnSync(e)
		}
	case trace.KindRelease:
		p.res.SyncOps++
		p.obsSync.Inc()
		t := p.thread(e.TID)
		p.vars[e.Addr] = p.vars[e.Addr].Join(t.vc)
		p.obsJoins.Inc()
		t.vc = t.vc.Tick(e.TID)
		t.dirty = true
		if p.opts.Evidence {
			t.ev.OnSync(e)
		}
	case trace.KindAcqRel:
		p.res.SyncOps++
		p.obsSync.Inc()
		t := p.thread(e.TID)
		if lv, ok := p.vars[e.Addr]; ok {
			t.vc = t.vc.Join(lv)
			p.obsJoins.Inc()
		}
		p.vars[e.Addr] = p.vars[e.Addr].Join(t.vc)
		p.obsJoins.Inc()
		t.vc = t.vc.Tick(e.TID)
		t.dirty = true
		if p.opts.Evidence {
			t.ev.OnSync(e)
		}
	case trace.KindRead, trace.KindWrite:
		if p.opts.SamplerBit >= 0 && e.Mask&(1<<uint(p.opts.SamplerBit)) == 0 {
			return nil
		}
		p.res.MemOps++
		p.obsMem.Inc()
		t := p.thread(e.TID)
		t.memSeq++
		if t.dirty || t.pub == nil {
			t.pub = t.vc.Clone()
			t.dirty = false
		}
		a := memAccess{
			ord:   p.ordinal,
			seq:   t.memSeq,
			addr:  e.Addr,
			tid:   e.TID,
			write: e.Kind == trace.KindWrite,
			pc:    e.PC,
			vc:    t.pub,
		}
		if p.opts.Evidence {
			a.ev = t.ev.Snapshot(t.pub)
		}
		p.ordinal++
		p.obsDispatch.Inc()
		i := p.shardOf(e.Addr)
		if p.pending[i] == nil {
			p.pending[i] = p.newBatch()
		}
		p.pending[i] = append(p.pending[i], a)
		if len(p.pending[i]) >= p.opts.BatchSize {
			p.flush(i)
		}
	}
	if clkTimed {
		p.clkNs += time.Since(clkT0).Nanoseconds()
		p.clkOps++
	}
	return nil
}

func (p *Pipeline) thread(tid int32) *clockState {
	t := p.threads[tid]
	if t == nil {
		// A fresh thread starts at clock 1 so its epoch (tid, 1) is not
		// vacuously happens-before everything (mirrors hb.Detector).
		t = &clockState{vc: hb.VC{}.Set(tid, 1), dirty: true}
		p.threads[tid] = t
	}
	return t
}

// shardOf partitions the address space: a multiplicative hash spreads
// the (often aligned, clustered) addresses evenly across shards.
func (p *Pipeline) shardOf(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15 >> 33) % uint64(len(p.shards)))
}

// newBatch returns an empty dispatch batch: one a shard has finished
// with when the free list has any, else a fresh one.
func (p *Pipeline) newBatch() []memAccess {
	select {
	case b := <-p.free:
		return b[:0]
	default:
		return make([]memAccess, 0, p.opts.BatchSize)
	}
}

func (p *Pipeline) flush(i int) {
	b := p.pending[i]
	if len(b) == 0 {
		return
	}
	p.pending[i] = nil
	var t0 time.Time
	if p.rec != nil {
		t0 = time.Now()
	}
	select {
	case p.shards[i].ch <- b:
	default:
		// Inbox full: the shard is behind and the clock engine blocks.
		p.backpres++
		p.obsBackpres.Inc()
		p.rec.Anomaly(diag.AnomBackpressure, int32(i), uint64(len(b)), p.ordinal)
		if p.log != nil {
			p.log.Debug("shard inbox full; clock engine blocked", "shard", i, "batch", len(b))
		}
		p.shards[i].ch <- b
	}
	if p.rec != nil {
		// The span covers the channel send, so a backpressure wait shows
		// up as dispatch latency on this shard's track.
		p.rec.Span(diag.StageShardDispatch, int32(i), t0, time.Since(t0), p.ordinal, uint64(len(b)))
	}
}

func (p *Pipeline) flushAll() {
	for i := range p.pending {
		p.flush(i)
	}
}

// Feed appends encoded log bytes. Chunks completed by this piece are
// decoded, merged, and their sampled accesses dispatched immediately.
// The error is non-nil only when the input is not an LTRC2 log at all
// (an LTRC1 log included); damage within the stream is recovered from
// and accounted, never fatal.
func (p *Pipeline) Feed(b []byte) error {
	if p.finished {
		return errors.New("stream: feed after finish")
	}
	p.obsBytes.Add(uint64(len(b)))
	var t0 time.Time
	if p.rec != nil {
		t0 = time.Now()
	}
	err := p.dec.Feed(b)
	if p.rec != nil {
		p.rec.Span(diag.StageChunkDecode, -1, t0, time.Since(t0), p.m.Delivered(), uint64(len(b)))
		p.recordSalvageAnomalies()
	}
	// Keep watch-style consumers current even when batches are small.
	p.flushAll()
	p.obsStalls.Set(float64(p.m.Stalls()))
	p.updateRate()
	return err
}

// recordSalvageAnomalies diffs the decoder's cumulative salvage
// accounting against the last reading and turns every increase into a
// flight-recorder anomaly record (and a structured warning).
func (p *Pipeline) recordSalvageAnomalies() {
	rep := p.dec.Report()
	vclk := p.m.Delivered()
	if d := rep.CRCFailures - p.prevCRC; d > 0 {
		p.prevCRC = rep.CRCFailures
		p.rec.Anomaly(diag.AnomCRCFailure, -1, uint64(d), vclk)
		if p.log != nil {
			p.log.Warn("chunk CRC failure; chunk dropped", "count", d, "total", rep.CRCFailures)
		}
	}
	if d := rep.SeqGaps - p.prevGaps; d > 0 {
		p.prevGaps = rep.SeqGaps
		p.rec.Anomaly(diag.AnomSeqGap, -1, d, vclk)
		if p.log != nil {
			p.log.Warn("chunk sequence gap; events lost", "slots", d, "total", rep.SeqGaps)
		}
	}
	// A resynchronization shows up as dropped bytes (the scan discards
	// them) or dropped chunks; record the byte magnitude.
	if d := rep.BytesDropped - p.prevDropped; d > 0 {
		p.prevDropped = rep.BytesDropped
		p.rec.Anomaly(diag.AnomMarkerResync, -1, uint64(d), vclk)
		if p.log != nil {
			p.log.Warn("resynchronized past damaged bytes", "bytes", d, "total", rep.BytesDropped)
		}
	} else if d := rep.ChunksDropped - p.prevChunks; d > 0 {
		if p.log != nil {
			p.log.Warn("chunk dropped", "count", d, "total", rep.ChunksDropped)
		}
	}
	p.prevChunks = rep.ChunksDropped
}

// rateWindow is the minimum interval between events_per_sec gauge
// refreshes during Feed.
const rateWindow = 100 * time.Millisecond

// updateRate refreshes the stream.events_per_sec gauge with the
// delivery rate over the window since the last refresh, so the gauge
// tracks the live rate instead of holding stale values.
func (p *Pipeline) updateRate() {
	now := time.Now()
	el := now.Sub(p.rateAt)
	if el < rateWindow {
		return
	}
	delivered := p.m.Delivered()
	p.obsEPS.Set(float64(delivered-p.rateDelivered) / el.Seconds())
	p.rateAt, p.rateDelivered = now, delivered
}

// Idle tells the pipeline the input tail has gone idle (a poll interval
// passed with no growth): the events_per_sec gauge decays to zero
// immediately instead of advertising the last burst's rate forever.
func (p *Pipeline) Idle() {
	if p.finished {
		return
	}
	p.obsEPS.Set(0)
	p.rateAt, p.rateDelivered = time.Now(), p.m.Delivered()
}

// Complete reports whether the log's metadata trailer has been decoded —
// the writer closed the log, so no more chunks are coming.
func (p *Pipeline) Complete() bool { return p.dec.Complete() }

// Backlog returns the number of decoded events buffered in the merge
// waiting for an earlier timestamp to arrive.
func (p *Pipeline) Backlog() int { return p.m.Backlog() }

// BacklogHighWater returns the largest merge backlog ever observed.
func (p *Pipeline) BacklogHighWater() int { return p.m.BacklogHighWater() }

// Probe returns the live readings the SLO watchdog evaluates. Call it
// from the feeding goroutine, like Feed.
func (p *Pipeline) Probe() diag.Probe {
	return diag.Probe{Backlog: p.m.Backlog(), BacklogHighWater: p.m.BacklogHighWater()}
}

// Finish declares the input over: the decoder applies its end-of-input
// rules to any torn tail, the merge drains (fast-forwarding stuck
// counters on damaged input), the shards flush, and their findings merge
// back into replay order. Finish is idempotent; Feed errors afterwards.
func (p *Pipeline) Finish() (*Result, error) {
	if p.finished {
		return p.finRes, p.finErr
	}
	p.finished = true
	srep, derr := p.dec.Finish()
	if derr == nil {
		if p.rec != nil {
			// The end-of-input rules may drop a torn tail; account it.
			p.recordSalvageAnomalies()
		}
		_ = p.m.Finish(p.handle)
	}
	p.flushAll()
	for _, s := range p.shards {
		close(s.ch)
	}
	for range p.shards {
		<-p.done
	}
	if derr != nil {
		// Not a log at all: shut down cleanly and surface the error.
		p.finErr = derr
		return nil, derr
	}

	lists := make([][]shardRace, len(p.shards))
	shardEvents := make([]uint64, len(p.shards))
	near := hb.NewNearAccum(p.opts.NearMissMargin)
	for i, s := range p.shards {
		lists[i] = s.races
		shardEvents[i] = s.events
		near.Merge(s.near)
	}

	res := &Result{
		Result:       p.res,
		Degradation:  p.deg,
		Salvage:      srep,
		Meta:         p.dec.Meta(),
		Complete:     p.dec.Complete(),
		Dispatched:   p.ordinal,
		ShardEvents:  shardEvents,
		Stalls:       p.m.Stalls(),
		Backpressure: p.backpres,
		Elapsed:      time.Since(p.start),
	}
	res.NearMisses = near.Rows()
	hb.PublishNearMisses(p.opts.Obs, res.NearMisses)
	res.Races, res.NumRaces, res.Unconfirmed = mergeRaces(lists, p.opts.KeepMax)
	p.obsRaces.Add(res.NumRaces)
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.EventsPerSec = float64(p.m.Delivered()) / sec
	}
	p.obsBacklog.Set(float64(p.m.Backlog()))
	p.obsHWM.Set(float64(p.m.BacklogHighWater()))
	p.obsStalls.Set(float64(p.m.Stalls()))
	p.obsEPS.Set(res.EventsPerSec)
	if reg := p.opts.Obs; reg != nil {
		total := res.Dispatched
		if total == 0 {
			total = 1
		}
		for i, n := range shardEvents {
			reg.Gauge(fmt.Sprintf("%s%d", ShardUtilGaugePrefix, i)).Set(float64(n) / float64(total))
		}
	}
	if p.depot != nil {
		agg := shadow.Stats{DepotStacks: p.depot.Len()}
		for _, s := range p.shards {
			st := s.eng.Stats()
			agg.Accesses += st.Accesses
			agg.FastpathHits += st.FastpathHits
			agg.Promotions += st.Promotions
			agg.Evictions += st.Evictions
			agg.Cells += st.Cells
		}
		res.Epoch = &agg
		if reg := p.opts.Obs; reg != nil {
			reg.Gauge("shadow.cells").Set(float64(agg.Cells))
			reg.Gauge("shadow.depot_stacks").Set(float64(agg.DepotStacks))
		}
	}
	p.finRes = res
	return res, nil
}

// mergeRaces merges the shards' race lists, each already in (ord, sub)
// order, into replay order, consuming lists. It keeps the first keepMax
// races (0 keeps all) and counts every race and every unconfirmed one.
// races stays nil when no shard found any, as a batch pass leaves
// hb.Result.Races.
func mergeRaces(lists [][]shardRace, keepMax int) (races []hb.DynamicRace, total, unconfirmed uint64) {
	for _, l := range lists {
		total += uint64(len(l))
		for i := range l {
			if l[i].r.Unconfirmed {
				unconfirmed++
			}
		}
	}
	n := int(total)
	if keepMax > 0 && n > keepMax {
		n = keepMax
	}
	if n == 0 {
		return nil, total, unconfirmed
	}
	races = make([]hb.DynamicRace, 0, n)
	// An ordinal belongs to one shard, so heads never tie on ord and each
	// list keeps its own sub order; with a handful of shards a linear scan
	// for the least head beats a heap.
	for len(races) < n {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0].ord < lists[best][0].ord) {
				best = i
			}
		}
		races = append(races, lists[best][0].r)
		lists[best] = lists[best][1:]
	}
	return races, total, unconfirmed
}
