// Package literace is a sampling-based dynamic data-race detector: a Go
// implementation of "LiteRace: Effective Sampling for Lightweight
// Data-Race Detection" (Marino, Musuvathi, Narayanasamy; PLDI 2009).
//
// LiteRace makes dynamic race detection cheap enough to leave on by
// logging only a sampled subset of memory accesses — chosen by a
// thread-local adaptive bursty sampler that samples cold code at 100% and
// backs off to 0.1% as code gets hot — while always logging every
// synchronization operation, so the offline happens-before analysis never
// reports a false race.
//
// The package offers two front ends over one runtime:
//
//   - A compile-and-run pipeline for LIR programs: Assemble source text,
//     Instrument it (the function-cloning dispatch-check rewriter), Run it
//     on the deterministic multithreaded interpreter, and Detect races in
//     the resulting log. This reproduces the paper's whole system,
//     including its evaluation (see cmd/racebench).
//   - An embedded Detector (see NewDetector) for annotating a concurrent
//     Go program directly with region-enter, memory-access, and
//     synchronization events.
package literace

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"time"

	"literace/internal/asm"
	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/obs/coverprof"
	"literace/internal/obs/diag"
	"literace/internal/race"
	"literace/internal/sampler"
	"literace/internal/stream"
	"literace/internal/trace"
)

// Program is an assembled LIR program, optionally instrumented.
type Program struct {
	orig *lir.Module // pre-instrumentation module (race PCs resolve here)
	mod  *lir.Module // module to execute
	inst *instrument.Stats
}

// Assemble parses LIR assembly text into a Program.
func Assemble(name, source string) (*Program, error) {
	m, err := asm.Assemble(name, source)
	if err != nil {
		return nil, err
	}
	return &Program{orig: m, mod: m}, nil
}

// Disassemble renders the program's executable module as assembly text.
func (p *Program) Disassemble() string { return asm.Disassemble(p.mod) }

// NumFuncs returns the function count of the original module.
func (p *Program) NumFuncs() int { return len(p.orig.Funcs) }

// FuncName resolves an original function index to its name.
func (p *Program) FuncName(idx int32) string {
	if idx < 0 || int(idx) >= len(p.orig.Funcs) {
		return fmt.Sprintf("fn%d", idx)
	}
	return p.orig.Funcs[idx].Name
}

// InstrumentStats describes what the rewriter did.
type InstrumentStats struct {
	Functions   int // functions given dispatch checks
	Clones      int // clone functions emitted
	MemAccesses int // loads/stores instrumented
	Spills      int // dispatch checks needing a register save/restore
}

// Instrument applies the LiteRace rewriting pass (two clones per function
// plus a dispatch check) and returns statistics. It is idempotent per
// Program: instrumenting twice is an error.
func (p *Program) Instrument() (InstrumentStats, error) {
	if p.mod.Rewritten {
		return InstrumentStats{}, fmt.Errorf("literace: program already instrumented")
	}
	rw, stats, err := instrument.Rewrite(p.orig, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		return InstrumentStats{}, err
	}
	p.mod = rw
	p.inst = stats
	return InstrumentStats{
		Functions:   stats.Dispatches,
		Clones:      stats.Clones,
		MemAccesses: stats.MemAccesses,
		Spills:      stats.Spills,
	}, nil
}

// Config controls an instrumented execution.
type Config struct {
	// Sampler names the primary sampling strategy: "TL-Ad" (default),
	// "TL-Fx", "G-Ad", "G-Fx", "Rnd10", "Rnd25", "UCP", or "Full".
	Sampler string
	// Seed drives the deterministic scheduler and samplers.
	Seed int64
	// LogTo receives the encoded event log; when nil an in-memory log is
	// kept for RunAndDetect.
	LogTo io.Writer
	// MaxInstrs bounds execution (0 = 1e9).
	MaxInstrs uint64
	// SchedTrace enables scheduler-slice markers in the log (KindSched
	// events): one begin and one end/preempt record per scheduling
	// slice, carrying the virtual instruction clock. They let `literace
	// timeline` reconstruct true per-thread execution tracks. Off by
	// default (the CLI turns it on for `literace run`).
	SchedTrace bool
	// Online enables the §4.4 online-detection variant: a happens-before
	// detector consumes events as the program emits them (the
	// interpreter's emission order is a legal interleaving), so races are
	// available immediately in RunResult.OnlineReport without replaying a
	// log. The log is still written.
	Online bool
	// Coverage enables per-function sampler coverage profiling: the
	// runtime records, per (thread, function), dispatch outcomes, the
	// adaptive back-off trajectory, burst windows over logged memory
	// events, and executed-vs-logged memory totals. The aggregated
	// profile lands in RunResult.Profile, and — together with Online —
	// lets BuildRunReport attribute each race to the sampling bursts
	// that captured its accesses. Costs a few counter updates per
	// dispatch and memory operation.
	Coverage bool
	// Obs, when non-nil, enables the runtime observability layer: the
	// sampler runtime, interpreter, trace writer, and detector publish
	// live telemetry (dispatch counts, per-sampler ESR, burst histograms,
	// scheduler and replay statistics) into the registry, and the
	// pipeline records phase spans. Nil (the default) disables telemetry
	// at zero per-event cost. See docs/OBSERVABILITY.md.
	Obs *obs.Registry
	// Diag, when non-nil, is the flight recorder: the interpreter's
	// periodic live hook records run-live heartbeat spans (wall time
	// against the virtual instruction clock) into it. Nil (the default)
	// disables recording at zero cost. See docs/OBSERVABILITY.md.
	Diag *diag.Recorder
	// Log, when non-nil, receives structured diagnostics (log/slog).
	// Nil keeps the pipeline silent.
	Log *slog.Logger
}

// RunResult summarizes an execution.
type RunResult struct {
	// Meta is the run metadata recorded in the log trailer.
	Meta trace.Meta
	// EffectiveRate is the fraction of memory operations logged.
	EffectiveRate float64
	// LoggedMemOps is the number of memory operations logged.
	LoggedMemOps uint64
	// Prints holds the program's print output.
	Prints []int64
	// OnlineReport holds the streaming detector's findings when
	// Config.Online was set; nil otherwise.
	OnlineReport *Report
	// Profile is the per-function sampler coverage profile when
	// Config.Coverage was set; nil otherwise.
	Profile *coverprof.Profile

	log       *bytes.Buffer        // non-nil when Config.LogTo was nil
	cov       *coverprof.Collector // non-nil when Config.Coverage was set
	onlineRes *hb.Result           // non-nil when Config.Online was set
}

// Run executes the instrumented program under the configured sampler,
// producing an event log.
func (p *Program) Run(cfg Config) (*RunResult, error) {
	if !p.mod.Rewritten {
		return nil, fmt.Errorf("literace: program not instrumented; call Instrument first")
	}
	name := cfg.Sampler
	if name == "" {
		name = "TL-Ad"
	}
	strat, ok := sampler.ByName(name)
	if !ok {
		return nil, fmt.Errorf("literace: unknown sampler %q", name)
	}
	out := &RunResult{}
	var sink io.Writer = cfg.LogTo
	if sink == nil {
		out.log = &bytes.Buffer{}
		sink = out.log
	}
	w, err := trace.NewWriter(sink)
	if err != nil {
		return nil, err
	}
	w.SetObs(cfg.Obs)
	rtCfg := core.Config{
		NumFuncs:       len(p.orig.Funcs),
		Primary:        strat,
		Writer:         w,
		EnableMemLog:   true,
		EnableSyncLog:  true,
		EnableSchedLog: cfg.SchedTrace,
		Seed:           cfg.Seed,
		Cost:           core.DefaultCostModel(),
		Obs:            cfg.Obs,
	}
	var online *hb.Detector
	if cfg.Online {
		// Evidence rides along when coverage profiling is on: the pair is
		// what BuildRunReport needs to stamp evidence digests, and the
		// capture cost is bounded by the sampled (logged) access count.
		online = hb.NewDetector(hb.Options{
			SamplerBit: hb.AllEvents, Obs: cfg.Obs, Evidence: cfg.Coverage,
		})
		rtCfg.OnEvent = func(e trace.Event) { online.Process(e) }
	}
	if cfg.Coverage {
		sched, blen := sampler.ScheduleOf(strat)
		out.cov = coverprof.NewCollector(len(p.orig.Funcs), sched, blen)
		rtCfg.Coverage = out.cov
	}
	rt, err := core.NewRuntime(rtCfg)
	if err != nil {
		return nil, err
	}
	iOpts := interp.Options{
		Seed: cfg.Seed, Runtime: rt, MaxInstrs: cfg.MaxInstrs, Obs: cfg.Obs,
	}
	if cfg.Obs != nil || cfg.Diag != nil {
		// Periodically fold thread-local counters and refresh the live ESR
		// gauges so a telemetry scrape mid-run (literace run -serve) sees
		// current sampler state. The hook runs on the interpreter's
		// goroutine, which owns all ThreadState. With a flight recorder
		// attached, each firing also leaves a run-live heartbeat span:
		// wall time between hooks against the virtual instruction clock,
		// so a post-mortem can see where execution slowed or stopped.
		lastLive := time.Now()
		iOpts.OnLive = func(l interp.LiveStats) {
			if cfg.Obs != nil {
				rt.FlushLiveStats()
				rt.PublishESR(l.MemOps)
			}
			if cfg.Diag != nil {
				now := time.Now()
				cfg.Diag.Span(diag.StageRunLive, -1, lastLive, now.Sub(lastLive), l.Instrs, l.MemOps)
				lastLive = now
			}
		}
	}
	mach, err := interp.New(p.mod, iOpts)
	if err != nil {
		return nil, err
	}
	// Periodic checkpoints snapshot the interpreter's counters into the
	// log, so a run killed mid-execution still carries usable metadata.
	w.SetMetaSource(mach.PartialMeta)
	span := cfg.Obs.StartSpan("run")
	res, runErr := mach.Run()
	span.EndItems(res.Instrs)
	meta := mach.Meta(res)
	if runErr != nil {
		// The program died (deadlock, runtime fault, instruction budget).
		// Flush and finalize the partial trace before surfacing the error
		// so what was logged stays salvageable instead of silently
		// dropped in the thread buffers.
		_ = w.Close(meta)
		if cfg.Log != nil {
			cfg.Log.Error("run failed; partial trace flushed", "err", runErr)
		}
		return nil, fmt.Errorf("literace: run failed: %w (partial trace flushed)", runErr)
	}
	if err := w.Close(meta); err != nil {
		return nil, err
	}
	rt.PublishESR(meta.MemOps)
	out.Meta = meta
	out.Prints = res.Prints
	out.LoggedMemOps = res.RuntimeStats.LoggedMemOps
	if meta.MemOps > 0 {
		out.EffectiveRate = float64(res.RuntimeStats.LoggedMemOps) / float64(meta.MemOps)
	}
	if out.cov != nil {
		out.Profile = out.cov.Snapshot(p.FuncName)
		out.Profile.Publish(cfg.Obs)
	}
	if online != nil {
		out.onlineRes = online.Result()
		set := race.NewSet()
		set.AddResult(out.onlineRes)
		out.OnlineReport = buildReport(set, meta, out.onlineRes, p.FuncName)
	}
	return out, nil
}

// PC identifies an instruction in the original (pre-instrumentation)
// program.
type PC struct {
	Func  int32 `json:"func"`  // original function index
	Index int32 `json:"index"` // instruction index within the function
}

// Race is one static data race, resolved to function names. The JSON
// field order is part of the literace.races/v1 contract (see
// Report.MarshalRaces) and must stay stable.
type Race struct {
	// First and Second identify the racing instructions ("func:index"),
	// normalized so First <= Second.
	First  string `json:"first"`
	Second string `json:"second"`
	// FirstPC and SecondPC are the same locations in structured form,
	// usable with Program.SourceContext.
	FirstPC  PC `json:"first_pc"`
	SecondPC PC `json:"second_pc"`
	// Count is the number of dynamic occurrences observed.
	Count uint64 `json:"count"`
	// WriteWrite and ReadWrite split Count by access-pair kind.
	WriteWrite uint64 `json:"write_write"`
	ReadWrite  uint64 `json:"read_write"`
	// Rare reports the paper's Table 4 classification: fewer than 3
	// occurrences per million non-stack memory instructions.
	Rare bool `json:"rare"`
	// Unconfirmed marks a race only ever observed after log damage
	// weakened the happens-before orderings (salvaged logs, degraded
	// replay). The zero-false-positive guarantee does not cover it.
	Unconfirmed bool `json:"unconfirmed"`
	// Addr is one racing address, for debugging.
	Addr uint64 `json:"addr"`
}

// Report is the outcome of race detection on one log.
type Report struct {
	Races []Race
	// MemOpsAnalyzed counts the sampled accesses the detector processed.
	MemOpsAnalyzed uint64
	// SyncOpsAnalyzed counts synchronization events processed.
	SyncOpsAnalyzed uint64
	// Meta is the log's run metadata.
	Meta trace.Meta

	// Degraded reports the analysis ran on a damaged log: chunks were
	// dropped in salvage or the replay weakened orderings. Races split
	// into confirmed (still no false positives) and unconfirmed.
	Degraded bool
	// DegradedSkips counts the timestamp slots the replay skipped over.
	DegradedSkips uint64
}

// Confirmed returns the races the zero-false-positive guarantee covers.
func (r *Report) Confirmed() []Race {
	var out []Race
	for _, rc := range r.Races {
		if !rc.Unconfirmed {
			out = append(out, rc)
		}
	}
	return out
}

// String renders the report for human consumption.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d static data races (%d mem ops, %d sync ops analyzed)\n",
		len(r.Races), r.MemOpsAnalyzed, r.SyncOpsAnalyzed)
	if r.Degraded {
		unconf := len(r.Races) - len(r.Confirmed())
		fmt.Fprintf(&b, "degraded analysis: %d confirmed, %d unconfirmed race(s); %d timestamp slots skipped\n",
			len(r.Races)-unconf, unconf, r.DegradedSkips)
	}
	for _, rc := range r.Races {
		class := "frequent"
		if rc.Rare {
			class = "rare"
		}
		suffix := ""
		if rc.Unconfirmed {
			suffix = " UNCONFIRMED"
		}
		fmt.Fprintf(&b, "  %-9s %s <-> %s  count=%d (ww=%d, rw=%d) addr=%#x%s\n",
			class, rc.First, rc.Second, rc.Count, rc.WriteWrite, rc.ReadWrite, rc.Addr, suffix)
	}
	return b.String()
}

// Detect runs the offline happens-before analysis over an encoded log.
// resolve maps original function indices to names; pass nil for raw
// indices, or Program.FuncName for source names.
func Detect(log io.Reader, resolve func(int32) string) (*Report, error) {
	return DetectObs(log, resolve, nil)
}

// DetectObs is Detect with telemetry: when reg is non-nil the decode,
// replay, and detection phases record spans and the detector publishes
// its counters (vector-clock joins, replay stalls, races found) into reg.
func DetectObs(log io.Reader, resolve func(int32) string, reg *obs.Registry) (*Report, error) {
	span := reg.StartSpan("decode")
	decoded, err := trace.ReadAll(log)
	if err != nil {
		return nil, err
	}
	span.EndItems(uint64(decoded.NumEvents()))
	span = reg.StartSpan("replay+detect")
	res, err := hb.Detect(decoded, hb.Options{SamplerBit: hb.AllEvents, Obs: reg})
	if err != nil {
		return nil, err
	}
	span.EndItems(res.MemOps + res.SyncOps)
	set := race.NewSet()
	set.AddResult(res)
	return buildReport(set, decoded.Meta, res, resolve), nil
}

// DetectEngine is DetectObs with an engine name, which must be empty or
// "epoch"; any other value is an error.
//
// Deprecated: the epoch core is the only engine; use DetectObs.
// DetectEngine remains because external benchmark code calls it.
func DetectEngine(log io.Reader, resolve func(int32) string, reg *obs.Registry, engine string) (*Report, error) {
	if engine != "" && engine != hb.EngineEpoch {
		return nil, fmt.Errorf("literace: unknown detection engine %q (the only engine is %q)", engine, hb.EngineEpoch)
	}
	return DetectObs(log, resolve, reg)
}

// DetectSalvaged analyzes a possibly damaged log: the log is decoded with
// trace.Salvage (dropping corrupt chunks and resyncing), replayed in
// degraded mode (hb.ReplayDegraded), and races first observed after any
// ordering was weakened are tagged unconfirmed. The returned SalvageReport
// describes the damage; Report.Degraded is set when either salvage lost
// data or the replay had to weaken orderings. Confirmed races keep the
// zero-false-positive guarantee. reg may be nil.
func DetectSalvaged(log io.Reader, resolve func(int32) string, reg *obs.Registry) (*Report, *trace.SalvageReport, error) {
	span := reg.StartSpan("salvage")
	decoded, srep, err := trace.SalvageObs(log, reg)
	if err != nil {
		return nil, nil, err
	}
	span.EndItems(uint64(decoded.NumEvents()))
	span = reg.StartSpan("replay+detect")
	res, deg, err := hb.DetectDegraded(decoded, hb.Options{SamplerBit: hb.AllEvents, Obs: reg})
	if err != nil {
		return nil, srep, err
	}
	span.EndItems(res.MemOps + res.SyncOps)
	set := race.NewSet()
	set.AddResult(res)
	rep := buildReport(set, decoded.Meta, res, resolve)
	rep.Degraded = deg.Degraded() || srep.Lossy()
	rep.DegradedSkips = deg.SlotsSkipped
	return rep, srep, nil
}

func buildReport(set *race.Set, meta trace.Meta, res *hb.Result, resolve func(int32) string) *Report {
	if resolve == nil {
		resolve = func(f int32) string { return fmt.Sprintf("fn%d", f) }
	}
	name := func(pc lir.PC) string { return fmt.Sprintf("%s:%d", resolve(pc.Func), pc.Index) }
	nonStack := meta.MemOps - meta.StackMemOps
	rep := &Report{Meta: meta, MemOpsAnalyzed: res.MemOps, SyncOpsAnalyzed: res.SyncOps}
	for _, st := range set.Races() {
		rep.Races = append(rep.Races, Race{
			First:       name(st.Key.A),
			Second:      name(st.Key.B),
			FirstPC:     PC{Func: st.Key.A.Func, Index: st.Key.A.Index},
			SecondPC:    PC{Func: st.Key.B.Func, Index: st.Key.B.Index},
			Count:       st.Count,
			WriteWrite:  st.WriteWrite,
			ReadWrite:   st.ReadWrite,
			Rare:        st.Rare(nonStack),
			Unconfirmed: st.Unconfirmed(),
			Addr:        st.SampleAddr,
		})
	}
	sort.Slice(rep.Races, func(i, j int) bool {
		a, b := rep.Races[i], rep.Races[j]
		if a.First != b.First {
			return a.First < b.First
		}
		return a.Second < b.Second
	})
	return rep
}

// RunAndDetect is the convenience path: execute the instrumented program
// and analyze its log in one step.
func (p *Program) RunAndDetect(cfg Config) (*RunResult, *Report, error) {
	if cfg.LogTo != nil {
		return nil, nil, fmt.Errorf("literace: RunAndDetect manages the log itself; leave LogTo nil")
	}
	res, err := p.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := DetectObs(bytes.NewReader(res.log.Bytes()), p.FuncName, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// SourceContext renders the original instructions around pc (window lines
// on each side), marking the racing instruction — the triage view a race
// report links to.
func (p *Program) SourceContext(pc PC, window int) string {
	if pc.Func < 0 || int(pc.Func) >= len(p.orig.Funcs) {
		return fmt.Sprintf("<unknown function %d>\n", pc.Func)
	}
	f := p.orig.Funcs[pc.Func]
	if pc.Index < 0 || int(pc.Index) >= len(f.Code) {
		return fmt.Sprintf("<%s: instruction %d out of range>\n", f.Name, pc.Index)
	}
	if window < 0 {
		window = 0
	}
	lo := int(pc.Index) - window
	if lo < 0 {
		lo = 0
	}
	hi := int(pc.Index) + window
	if hi >= len(f.Code) {
		hi = len(f.Code) - 1
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "func %s:\n", f.Name)
	for i := lo; i <= hi; i++ {
		marker := "   "
		if int32(i) == pc.Index {
			marker = "=> "
		}
		fmt.Fprintf(&b, "  %s%4d: %s\n", marker, i, f.Code[i].String())
	}
	return b.String()
}

// StreamRace is one dynamic race as delivered live by a streaming
// session, resolved to the same normalized "func:index" pair a Report
// uses (First <= Second).
type StreamRace struct {
	First, Second string
	// WriteWrite reports whether both accesses were writes.
	WriteWrite bool
	// Addr is the racing address.
	Addr uint64
	// Unconfirmed marks a race first observed after log damage weakened
	// the happens-before orderings.
	Unconfirmed bool
}

// StreamOptions configures a streaming detection session.
type StreamOptions struct {
	// Shards is the number of parallel detection workers (shadow memory
	// partitioned by address); 0 means stream.DefaultShards.
	Shards int
	// Obs, when non-nil, receives live pipeline telemetry (the
	// literace_stream_* metric families).
	Obs *obs.Registry
	// Diag, when non-nil, is the flight recorder: every pipeline stage
	// records spans and every anomaly (CRC failure, sequence gap,
	// resync, backpressure, backlog high-watermark, degrade transition)
	// leaves a structured record for post-mortem inspection.
	Diag *diag.Recorder
	// Log, when non-nil, receives structured pipeline warnings (slog).
	Log *slog.Logger
	// OnRace, when non-nil, is invoked as each dynamic race is found —
	// in discovery order, which under sharding is not replay order. The
	// final Report is the canonical deduplicated view.
	OnRace func(StreamRace)
	// Evidence enables forensic evidence capture (hb.Options.Evidence):
	// every race in the final stream.Result carries immutable vector-
	// clock, frontier, and lockset snapshots, byte-identical to a batch
	// evidence pass over the same bytes.
	Evidence bool
	// NearMissMargin enables near-miss analytics
	// (hb.Options.NearMissMargin); 0 disables.
	NearMissMargin int
}

// StreamSession runs the online detection pipeline over an LTRC2 log
// that may still be growing: Feed it bytes as they appear (tailing a
// file, draining a socket) and Finish once the input is over. The final
// Report is identical to what Detect/DetectSalvaged would produce on the
// same bytes. See docs/STREAMING.md.
type StreamSession struct {
	p       *stream.Pipeline
	resolve func(int32) string
}

// NewStreamSession starts a streaming detection session. resolve maps
// original function indices to names (nil for raw indices).
func NewStreamSession(resolve func(int32) string, opts StreamOptions) *StreamSession {
	s := &StreamSession{resolve: resolve}
	popts := stream.Options{
		Shards:         opts.Shards,
		SamplerBit:     hb.AllEvents,
		Obs:            opts.Obs,
		Diag:           opts.Diag,
		Log:            opts.Log,
		Evidence:       opts.Evidence,
		NearMissMargin: opts.NearMissMargin,
	}
	if opts.OnRace != nil {
		name := func(pc lir.PC) string { return fmt.Sprintf("fn%d:%d", pc.Func, pc.Index) }
		if resolve != nil {
			name = func(pc lir.PC) string { return fmt.Sprintf("%s:%d", resolve(pc.Func), pc.Index) }
		}
		popts.OnRace = func(r hb.DynamicRace) {
			k := race.KeyOf(r)
			opts.OnRace(StreamRace{
				First:       name(k.A),
				Second:      name(k.B),
				WriteWrite:  r.PrevWrite && r.CurWrite,
				Addr:        r.Addr,
				Unconfirmed: r.Unconfirmed,
			})
		}
	}
	s.p = stream.New(popts)
	return s
}

// Feed appends encoded log bytes; completed chunks are analyzed
// immediately. The error is non-nil only when the input is not an LTRC2
// log at all; damage within the stream is recovered from, never fatal.
func (s *StreamSession) Feed(b []byte) error { return s.p.Feed(b) }

// Complete reports whether the log's trailer has been seen — the writer
// closed it, so no more events are coming.
func (s *StreamSession) Complete() bool { return s.p.Complete() }

// Backlog returns the number of decoded events buffered waiting for an
// earlier timestamp to arrive.
func (s *StreamSession) Backlog() int { return s.p.Backlog() }

// BacklogHighWater returns the largest backlog ever observed.
func (s *StreamSession) BacklogHighWater() int { return s.p.BacklogHighWater() }

// Idle tells the session the input tail has gone idle (a poll interval
// passed without growth): the live stream.events_per_sec gauge decays
// to zero instead of holding the last burst's rate.
func (s *StreamSession) Idle() { s.p.Idle() }

// Probe returns the live readings a diag.SLO evaluates (merge backlog
// and its high watermark). Call it from the feeding goroutine.
func (s *StreamSession) Probe() diag.Probe { return s.p.Probe() }

// Finish declares the input over and returns the final Report — equal to
// a batch DetectSalvaged over the same bytes — plus the pipeline result
// with its salvage, degradation, and throughput detail.
func (s *StreamSession) Finish() (*Report, *stream.Result, error) {
	res, err := s.p.Finish()
	if err != nil {
		return nil, nil, err
	}
	set := race.NewSet()
	set.AddResult(&res.Result)
	rep := buildReport(set, res.Meta, &res.Result, s.resolve)
	rep.Degraded = res.Degradation.Degraded() || res.Salvage.Lossy()
	rep.DegradedSkips = res.Degradation.SlotsSkipped
	return rep, res, nil
}

// DetectStream is the one-shot convenience: run the streaming pipeline
// over a complete encoded log. The Report equals DetectSalvaged's on the
// same bytes; the pipeline's only advantage here is sharded parallelism.
func DetectStream(log io.Reader, resolve func(int32) string, reg *obs.Registry) (*Report, *trace.SalvageReport, error) {
	s := NewStreamSession(resolve, StreamOptions{Obs: reg})
	buf := make([]byte, 64<<10)
	for {
		n, err := log.Read(buf)
		if n > 0 {
			if ferr := s.Feed(buf[:n]); ferr != nil {
				return nil, nil, ferr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
	}
	rep, res, err := s.Finish()
	if err != nil {
		return nil, nil, err
	}
	return rep, res.Salvage, nil
}

// VerifyLog checks an encoded log's structural invariants beyond what
// decoding enforces: dense per-counter timestamps, per-thread timestamp
// monotonicity, and sampler-mask bounds (see docs/FORMAT.md). A log that
// verifies is guaranteed to replay.
func VerifyLog(log io.Reader) error {
	decoded, err := trace.ReadAll(log)
	if err != nil {
		return err
	}
	return trace.Verify(decoded)
}

// Samplers lists the available sampler names in the paper's Table 3 order
// plus "Full".
func Samplers() []string {
	var names []string
	for _, s := range sampler.Evaluated() {
		names = append(names, s.Name())
	}
	return append(names, "Full")
}
