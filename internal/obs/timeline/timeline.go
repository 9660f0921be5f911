// Package timeline turns an encoded LiteRace trace into a Chrome
// trace-event / Perfetto JSON flight recording: one track per thread
// with scheduler slices and sampled-burst windows, instant markers for
// synchronization operations, flow arrows for cross-thread
// happens-before edges and detected races, a cumulative sampled-access
// counter track, and checkpoint/salvage markers for damaged logs. Open
// the output at ui.perfetto.dev (or chrome://tracing) to scrub through
// the execution and trace a race back to its two accesses.
//
// Time axis: when the log carries scheduler slice markers (KindSched,
// produced by Config.SchedTrace / `literace run -sched`), timestamps
// derive from the virtual instruction clock — 10 trace-µs per
// instruction, with events inside a slice interpolated evenly between
// its boundaries. Slices never overlap (the interpreter is a
// single-core deterministic scheduler), so cross-thread ordering on the
// timeline is sound. Without sched markers, timestamps fall back to 10
// trace-µs per replayed event, which still orders everything legally.
package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"

	"literace/internal/hb"
	"literace/internal/lir"
	"literace/internal/obs/diag"
	"literace/internal/trace"
)

// Options configures a Build.
type Options struct {
	// Salvage forces salvage decoding even if the log reads strictly.
	// When false, Build tries strict decoding first and falls back to
	// salvage on error.
	Salvage bool
	// MaxEdges caps the happens-before flow arrows (they dominate output
	// size on sync-heavy programs); 0 means the default 4096. Dropped
	// edges are counted in Stats.EdgesDropped.
	MaxEdges int
	// MaxRaces caps the race markers and race flow arrows; 0 means the
	// default 1024.
	MaxRaces int
	// Resolve, when non-nil, maps original function indices to names in
	// PC annotations (pass Program.FuncName); nil leaves raw indices.
	Resolve func(int32) string
	// FlightRecorder, when non-empty, adds a second process group of
	// tracks rendering the pipeline flight recorder (diag.Recorder
	// snapshot): one track per stage with wall-clock spans, plus an
	// anomaly track with instant markers. Its time axis is wall
	// nanoseconds since the recorder epoch (scaled to µs), not the
	// virtual instruction clock of the replay tracks.
	FlightRecorder []diag.Event
}

// pcName renders a PC with the optional function-name resolver.
func (o Options) pcName(pc lir.PC) string {
	if o.Resolve == nil {
		return pc.String()
	}
	return fmt.Sprintf("%s:%d", o.Resolve(pc.Func), pc.Index)
}

// Stats summarizes what the timeline contains.
type Stats struct {
	Events       int    `json:"events"`  // trace-event records emitted
	Threads      int    `json:"threads"` // thread tracks
	Slices       int    `json:"slices"`  // scheduler slices drawn
	Bursts       int    `json:"bursts"`  // sampled-burst windows drawn
	SyncOps      uint64 `json:"sync_ops"`
	MemOps       uint64 `json:"mem_ops"`
	Edges        int    `json:"edges"` // happens-before arrows drawn
	EdgesDropped int    `json:"edges_dropped"`
	Races        uint64 `json:"races"` // dynamic races detected
	RacesDrawn   int    `json:"races_drawn"`
	Checkpoints  int    `json:"checkpoints"`
	Salvaged     bool   `json:"salvaged"` // salvage decoding was used
	Degraded     bool   `json:"degraded"` // orderings were weakened
	// Flight-recorder track contents (zero unless Options.FlightRecorder
	// was provided).
	FlightSpans     int `json:"flight_spans"`
	FlightAnomalies int `json:"flight_anomalies"`
}

// tev is one Chrome trace-event record.
type tev struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const (
	pid = 1 // single process: the interpreted program
	// recorderTID is the Perfetto tid of the synthetic "trace recorder"
	// track carrying checkpoint markers; real thread tid t maps to t+1.
	recorderTID = 0
	// tickPerUnit is trace-µs per clock unit (instruction or replay
	// step); sub-event detail (tiny sync slices, flow anchors) nests
	// inside one tick.
	tickPerUnit = 10
	syncDur     = 4 // trace-µs width of a sync-op micro-slice
	flowOff     = 2 // flow anchors sit inside the micro-slice
)

func ptid(tid int32) int { return int(tid) + 1 }

// edgeSeq is a happens-before edge resolved to global replay positions.
type edgeSeq struct {
	from, to int
	edge     hb.Edge
}

// raceSeq is a detected race resolved to global replay positions.
type raceSeq struct {
	prev, cur int
	race      hb.DynamicRace
}

// Build decodes an encoded trace and renders it as Chrome trace-event
// JSON (the object form, loadable by Perfetto and chrome://tracing).
func Build(data []byte, opts Options) ([]byte, *Stats, error) {
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = 4096
	}
	if opts.MaxRaces <= 0 {
		opts.MaxRaces = 1024
	}
	stats := &Stats{}

	log, err := decode(data, opts, stats)
	if err != nil {
		return nil, nil, err
	}

	// Replay into one legal global order, detecting races and collecting
	// happens-before edges as we go. ReplayDegraded handles both clean
	// and salvaged logs (a clean log replays with zero degradation).
	var (
		order   []trace.Event
		edges   []edgeSeq
		races   []raceSeq
		relSeq  = map[[2]uint64]int{} // (counter, ts) -> release seq
		lastMem = map[[2]uint64]int{} // (addr, tid) -> last access seq
	)
	det := hb.NewDetector(hb.Options{
		SamplerBit: hb.AllEvents,
		KeepMax:    1,
		OnEdge: func(e hb.Edge) {
			if len(edges) >= opts.MaxEdges {
				stats.EdgesDropped++
				return
			}
			if from, ok := relSeq[[2]uint64{uint64(e.Counter), e.TS}]; ok {
				edges = append(edges, edgeSeq{from: from, to: len(order), edge: e})
			}
		},
		OnRace: func(r hb.DynamicRace) {
			if len(races) >= opts.MaxRaces {
				return
			}
			if prev, ok := lastMem[[2]uint64{r.Addr, uint64(uint32(r.PrevTID))}]; ok {
				races = append(races, raceSeq{prev: prev, cur: len(order), race: r})
			}
		},
	})
	deg, err := hb.ReplayDegraded(log, nil, det.MarkDegraded, func(e trace.Event) error {
		det.Process(e)
		seq := len(order)
		switch {
		case e.Kind.IsMem():
			lastMem[[2]uint64{e.Addr, uint64(uint32(e.TID))}] = seq
		case e.Kind == trace.KindRelease || e.Kind == trace.KindAcqRel:
			relSeq[[2]uint64{uint64(e.Counter), e.TS}] = seq
		}
		order = append(order, e)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("timeline: replay: %w", err)
	}
	res := det.Result()
	stats.Races = res.NumRaces
	stats.SyncOps = res.SyncOps
	stats.MemOps = res.MemOps
	stats.Degraded = stats.Degraded || deg.Degraded() || res.Degraded

	// Per-thread views of the global order, and per-event timestamps.
	perThread := map[int32][]int{}
	for seq, e := range order {
		perThread[e.TID] = append(perThread[e.TID], seq)
	}
	ts := assignTimestamps(order, perThread)

	var evs []tev
	emit := func(e tev) { evs = append(evs, e) }

	// Track metadata.
	emit(tev{Name: "process_name", Ph: "M", PID: pid, TID: recorderTID,
		Args: map[string]any{"name": "literace " + log.Meta.Module}})
	emit(tev{Name: "thread_name", Ph: "M", PID: pid, TID: recorderTID,
		Args: map[string]any{"name": "trace recorder"}})
	for _, tid := range log.TIDs() {
		emit(tev{Name: "thread_name", Ph: "M", PID: pid, TID: ptid(tid),
			Args: map[string]any{"name": fmt.Sprintf("thread %d", tid)}})
		stats.Threads++
	}

	emitThreadTracks(order, perThread, ts, stats, emit)
	emitSyncAndCounter(order, ts, opts, emit)
	emitFlows(order, ts, edges, races, opts, stats, emit)
	maxTS := int64(0)
	for _, t := range ts {
		if t > maxTS {
			maxTS = t
		}
	}
	emitRecorderTrack(data, log, perThread, ts, maxTS, stats, emit)
	emitFlightRecorder(opts.FlightRecorder, stats, emit)

	stats.Events = len(evs)
	out := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"module":   log.Meta.Module,
			"sampler":  log.Meta.Primary,
			"seed":     log.Meta.Seed,
			"salvaged": stats.Salvaged,
			"degraded": stats.Degraded,
		},
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return nil, nil, err
	}
	return buf, stats, nil
}

// decode reads the log strictly, falling back to (or forced into)
// salvage decoding.
func decode(data []byte, opts Options, stats *Stats) (*trace.Log, error) {
	if !opts.Salvage {
		log, err := trace.ReadAll(bytes.NewReader(data))
		if err == nil {
			return log, nil
		}
	}
	log, rep, err := trace.Salvage(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("timeline: decode: %w", err)
	}
	stats.Salvaged = true
	stats.Degraded = rep.Lossy()
	return log, nil
}

// assignTimestamps computes each event's trace-µs timestamp. With sched
// markers, an event's time comes from the virtual instruction clock:
// slice boundaries at 10*clock, interior events interpolated evenly.
// Without markers (or for a thread that has none), time is 10*seq in
// the replayed global order, which is also a legal interleaving.
func assignTimestamps(order []trace.Event, perThread map[int32][]int) []int64 {
	ts := make([]int64, len(order))
	for seq := range order {
		ts[seq] = int64(seq) * tickPerUnit
	}
	for _, seqs := range perThread {
		// Locate this thread's slices: [begin, end] sched marker pairs.
		hasSched := false
		for _, s := range seqs {
			if order[s].Kind.IsSched() {
				hasSched = true
				break
			}
		}
		if !hasSched {
			continue
		}
		lastClock := int64(0)
		i := 0
		for i < len(seqs) {
			e := order[seqs[i]]
			if !e.Kind.IsSched() || e.Op != trace.OpSliceBegin {
				// Outside any slice (e.g. a fork-child event logged
				// before the child's first slice): pin to the last known
				// clock so thread order stays monotone.
				ts[seqs[i]] = lastClock * tickPerUnit
				i++
				continue
			}
			// Find the matching end marker.
			j := i + 1
			for j < len(seqs) {
				ej := order[seqs[j]]
				if ej.Kind.IsSched() && (ej.Op == trace.OpSliceEnd || ej.Op == trace.OpSlicePreempt) {
					break
				}
				j++
			}
			beginClock := int64(order[seqs[i]].TS)
			endClock := beginClock
			if j < len(seqs) {
				endClock = int64(order[seqs[j]].TS)
			}
			ts[seqs[i]] = beginClock * tickPerUnit
			n := int64(j - i - 1) // interior events
			for k := int64(0); k < n; k++ {
				ts[seqs[i+1+int(k)]] = beginClock*tickPerUnit +
					(endClock-beginClock)*tickPerUnit*(k+1)/(n+1)
			}
			if j < len(seqs) {
				ts[seqs[j]] = endClock * tickPerUnit
			}
			lastClock = endClock
			i = j + 1
		}
	}
	return ts
}

// emitThreadTracks draws the scheduler slices and sampled-burst windows
// on each thread's track.
func emitThreadTracks(order []trace.Event, perThread map[int32][]int, ts []int64, stats *Stats, emit func(tev)) {
	for tid, seqs := range perThread {
		// Scheduler slices.
		for i := 0; i < len(seqs); i++ {
			e := order[seqs[i]]
			if !e.Kind.IsSched() || e.Op != trace.OpSliceBegin {
				continue
			}
			j := i + 1
			for j < len(seqs) {
				ej := order[seqs[j]]
				if ej.Kind.IsSched() && (ej.Op == trace.OpSliceEnd || ej.Op == trace.OpSlicePreempt) {
					break
				}
				j++
			}
			name := "slice"
			preempted := false
			if j < len(seqs) && order[seqs[j]].Op == trace.OpSlicePreempt {
				name = "slice (preempted)"
				preempted = true
			}
			start := ts[seqs[i]]
			end := start + 1
			instrs := uint64(0)
			if j < len(seqs) {
				end = ts[seqs[j]]
				instrs = order[seqs[j]].TS - e.TS
			}
			emit(tev{Name: name, Cat: "sched", Ph: "X", TS: start, Dur: max64(end-start, 1),
				PID: pid, TID: ptid(tid),
				Args: map[string]any{"slice": e.Addr, "instrs": instrs, "preempted": preempted}})
			stats.Slices++
			i = j
		}
		// Sampled bursts: maximal runs of consecutive memory events
		// (uninterrupted by sync or sched markers, so a burst never
		// crosses a slice boundary and nests inside its slice).
		runStart := -1
		flush := func(endIdx int) {
			if runStart < 0 {
				return
			}
			first, last := seqs[runStart], seqs[endIdx]
			n := endIdx - runStart + 1
			emit(tev{Name: "sampled burst", Cat: "sample", Ph: "X",
				TS: ts[first], Dur: max64(ts[last]-ts[first], 1) + 1,
				PID: pid, TID: ptid(tid),
				Args: map[string]any{"accesses": n}})
			stats.Bursts++
			runStart = -1
		}
		for i, s := range seqs {
			if order[s].Kind.IsMem() {
				if runStart < 0 {
					runStart = i
				}
			} else {
				flush(i - 1)
			}
		}
		flush(len(seqs) - 1)
	}
}

// emitSyncAndCounter draws one micro-slice per sync operation (flows
// anchor to these) and the cumulative sampled-access counter track.
func emitSyncAndCounter(order []trace.Event, ts []int64, opts Options, emit func(tev)) {
	memTotal := 0
	for _, e := range order {
		if e.Kind.IsMem() {
			memTotal++
		}
	}
	// At most ~1000 counter points, so huge logs stay loadable.
	counterStep := memTotal/1000 + 1
	memSeen := 0
	for seq, e := range order {
		switch {
		case e.Kind.IsSync():
			emit(tev{Name: e.Op.String(), Cat: "sync", Ph: "X", TS: ts[seq], Dur: syncDur,
				PID: pid, TID: ptid(e.TID),
				Args: map[string]any{
					"var": fmt.Sprintf("%#x", e.Addr), "counter": e.Counter,
					"ts": e.TS, "pc": opts.pcName(e.PC),
				}})
		case e.Kind.IsMem():
			memSeen++
			if memSeen%counterStep == 0 || memSeen == memTotal {
				emit(tev{Name: "sampled accesses", Ph: "C", TS: ts[seq], PID: pid,
					TID: recorderTID, Args: map[string]any{"count": memSeen}})
			}
		}
	}
}

// emitFlows draws the happens-before arrows (release -> acquire) and
// the race markers with their access-pair arrows.
func emitFlows(order []trace.Event, ts []int64, edges []edgeSeq, races []raceSeq, opts Options, stats *Stats, emit func(tev)) {
	id := 1
	for _, es := range edges {
		emit(tev{Name: "hb", Cat: "hb", Ph: "s", ID: id, TS: ts[es.from] + flowOff,
			PID: pid, TID: ptid(es.edge.FromTID)})
		emit(tev{Name: "hb", Cat: "hb", Ph: "f", BP: "e", ID: id, TS: ts[es.to] + flowOff,
			PID: pid, TID: ptid(es.edge.ToTID)})
		id++
		stats.Edges++
	}
	// Racy accesses get their own micro-slices so the race arrows have
	// anchors; memory events are otherwise not drawn individually.
	drawn := map[int]bool{}
	access := func(seq int, pcName string, write bool, tid int32) {
		if drawn[seq] {
			return
		}
		drawn[seq] = true
		kind := "racy read"
		if write {
			kind = "racy write"
		}
		emit(tev{Name: kind, Cat: "race", Ph: "X", TS: ts[seq], Dur: syncDur,
			PID: pid, TID: ptid(tid), Args: map[string]any{"pc": pcName}})
	}
	for _, rs := range races {
		r := rs.race
		access(rs.prev, opts.pcName(r.PrevPC), r.PrevWrite, r.PrevTID)
		access(rs.cur, opts.pcName(r.CurPC), r.CurWrite, r.CurTID)
		emit(tev{Name: "race", Cat: "race", Ph: "s", ID: id, TS: ts[rs.prev] + flowOff,
			PID: pid, TID: ptid(r.PrevTID)})
		emit(tev{Name: "race", Cat: "race", Ph: "f", BP: "e", ID: id, TS: ts[rs.cur] + flowOff,
			PID: pid, TID: ptid(r.CurTID)})
		id++
		emit(tev{Name: fmt.Sprintf("RACE %s <-> %s", opts.pcName(r.PrevPC), opts.pcName(r.CurPC)), Cat: "race",
			Ph: "i", Scope: "g", TS: ts[rs.cur] + flowOff, PID: pid, TID: ptid(r.CurTID),
			Args: map[string]any{
				"addr": fmt.Sprintf("%#x", r.Addr), "unconfirmed": r.Unconfirmed,
			}})
		stats.RacesDrawn++
	}
}

// emitRecorderTrack draws checkpoint markers (from the raw chunk
// structure) and per-thread salvage-gap markers.
func emitRecorderTrack(data []byte, log *trace.Log, perThread map[int32][]int, ts []int64, maxTS int64, stats *Stats, emit func(tev)) {
	if spans, err := trace.ChunkSpans(data); err == nil && len(data) > 0 {
		for _, sp := range spans {
			if !sp.IsCheckpoint() {
				continue
			}
			// Checkpoints carry no clock; place them proportionally
			// by byte offset, which tracks emission order.
			at := maxTS * int64(sp.Start) / int64(len(data))
			emit(tev{Name: "checkpoint", Cat: "trace", Ph: "i", Scope: "t",
				TS: at, PID: pid, TID: recorderTID,
				Args: map[string]any{"offset": sp.Start}})
			stats.Checkpoints++
		}
	}
	for tid, idx := range log.Degraded {
		at := maxTS
		if seqs := perThread[tid]; idx < len(seqs) {
			at = ts[seqs[idx]]
		}
		emit(tev{Name: "salvage gap", Cat: "salvage", Ph: "i", Scope: "t",
			TS: at, PID: pid, TID: ptid(tid),
			Args: map[string]any{"suspect_from": idx}})
		stats.Degraded = true
	}
}

// Flight-recorder track layout: a second Perfetto process holding one
// track per pipeline stage plus an anomaly track. Its time base is wall
// nanoseconds since the diag.Recorder epoch, so it scrubs alongside the
// replay tracks but measures real pipeline latency, not virtual time.
const (
	flightPID        = 2
	flightAnomalyTID = 0
)

// emitFlightRecorder renders a diag snapshot as the pipeline process:
// stage spans become X slices on per-stage tracks, anomalies become
// instant markers with their magnitude and virtual clock attached.
func emitFlightRecorder(events []diag.Event, stats *Stats, emit func(tev)) {
	if len(events) == 0 {
		return
	}
	emit(tev{Name: "process_name", Ph: "M", PID: flightPID, TID: flightAnomalyTID,
		Args: map[string]any{"name": "detection pipeline (flight recorder)"}})
	emit(tev{Name: "thread_name", Ph: "M", PID: flightPID, TID: flightAnomalyTID,
		Args: map[string]any{"name": "anomalies"}})
	named := map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case diag.KindSpan:
			tid := int(e.Stage) + 1
			if !named[tid] {
				named[tid] = true
				emit(tev{Name: "thread_name", Ph: "M", PID: flightPID, TID: tid,
					Args: map[string]any{"name": "stage " + e.Stage.String()}})
			}
			emit(tev{Name: e.Stage.String(), Cat: "flight", Ph: "X",
				TS: e.Wall / 1000, Dur: max64(e.WallDur/1000, 1),
				PID: flightPID, TID: tid,
				Args: map[string]any{
					"producer": e.TID, "items": e.Items, "vclock": e.VClock,
					"wall_dur_ns": e.WallDur,
				}})
			stats.FlightSpans++
		case diag.KindAnomaly:
			emit(tev{Name: e.Anomaly.String(), Cat: "flight", Ph: "i", Scope: "p",
				TS: e.Wall / 1000, PID: flightPID, TID: flightAnomalyTID,
				Args: map[string]any{
					"producer": e.TID, "magnitude": e.Items, "vclock": e.VClock,
				}})
			stats.FlightAnomalies++
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
