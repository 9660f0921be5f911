package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"literace"
	"literace/internal/asm"
	"literace/internal/collector"
	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/sampler"
	"literace/internal/trace"
)

// probeReps is how often the layer probe repeats each call per program.
// It keeps the fastest call, since most layer metrics are differences
// between two calls.
const probeReps = 2

// layerSums accumulates, over the matrix, each probed call's best time
// and the work it did.
type layerSums struct {
	interp                                       time.Duration // fastest uninstrumented run
	instrs                                       uint64
	dispatchExtra, encodeExtra                   time.Duration // see probeExtra
	dispatches, logged                           uint64
	sampled                                      time.Duration
	sampledEvents                                uint64
	decode, merge, epoch, vc, engine, engineObs  time.Duration
	report, stream1, stream4, finish, ship       time.Duration
	events, decodeAlloc, mergeAlloc, streamAlloc uint64
	skew, logMB, retainedMB                      float64
}

// timing is one probed call: its wall time, the items it processed and
// the heap bytes it allocated.
type timing struct {
	d     time.Duration
	items uint64
	alloc uint64
	rep   int // which repetition was fastest
}

// measure calls f probeReps times, each after a forced GC and under a
// span, and returns the fastest call. f gets its span's ID, for children.
func (b *bench) measure(name string, parent, op int, f func(span int) (uint64, error)) (timing, error) {
	best := timing{d: math.MaxInt64}
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		a0 := allocBytes()
		sp := b.tr.start(name, parent, op)
		t0 := time.Now()
		items, err := f(sp)
		d, alloc := time.Since(t0), allocBytes()-a0
		b.tr.end(sp, items)
		if err != nil {
			return timing{}, fmt.Errorf("%s: %w", name, err)
		}
		if d < best.d {
			best = timing{d, items, alloc, r}
		}
	}
	return best, nil
}

// layerProbe times each layer's public entry points on every matrix
// program, one span per call, and derives the per-layer metrics from
// those times.
func (b *bench) layerProbe(progs []*program) (map[string]float64, error) {
	seeds := scheduleSeeds(b.seed, seedsPerProgram)
	var ls layerSums
	var logs [][]byte
	for i, p := range progs {
		log, err := b.probeProgram(p, seeds[i][0], &ls)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.key, err)
		}
		logs = append(logs, log)
	}
	if err := b.probeCollector(logs, &ls); err != nil {
		return nil, err
	}
	n := float64(len(progs))
	ns := func(d time.Duration, per uint64) float64 { return float64(d) / float64(per) }
	return map[string]float64{
		"interp.ns_per_instr":                ns(ls.interp, ls.instrs),
		"core.dispatch_ns_per_call":          ns(ls.dispatchExtra, ls.dispatches),
		"trace.encode_ns_per_event":          ns(ls.encodeExtra, ls.logged),
		"hb.detect_ns_per_event.sampled":     ns(ls.sampled, ls.sampledEvents),
		"trace.decode_ns_per_event":          ns(ls.decode, ls.events),
		"trace.decode_alloc_bytes_per_event": float64(ls.decodeAlloc) / float64(ls.events),
		"hb.merge_ns_per_event":              ns(ls.merge, ls.events),
		"hb.merge_alloc_bytes_per_event":     float64(ls.mergeAlloc) / float64(ls.events),
		"shadow.access_ns_per_event":         ns(ls.epoch-ls.merge, ls.events),
		"hb.vc_access_ns_per_event":          ns(ls.vc-ls.merge, ls.events),
		"literace.report_ns":                 float64(ls.report) / n,
		"stream.ns_per_event.shards-1":       ns(ls.stream1, ls.events),
		"stream.ns_per_event.shards-4":       ns(ls.stream4, ls.events),
		"stream.finish_ms":                   ms(ls.finish) / n,
		"stream.alloc_bytes_per_event":       float64(ls.streamAlloc) / float64(ls.events),
		"stream.shard_skew":                  ls.skew / n,
		"collector.wire_ms_per_mb":           ms(ls.ship-ls.stream4) / ls.logMB,
		"collector.retained_mb_per_session":  ls.retainedMB,
		"obs.overhead_ratio":                 float64(ls.engineObs) / float64(ls.engine),
	}, nil
}

// execMode indexes execModes.
type execMode int

const (
	modeBaseline execMode = iota
	modeDispatch
	modeDispatchFull
	modeLoggingFull
)

// execModes are the interpreter runs the layer probe compares. An empty
// sampler runs the uninstrumented module with no runtime; logging runs
// encode every logged event to io.Discard.
var execModes = [...]struct {
	name    string
	sampler string
	logging bool
}{
	modeBaseline:     {"interp.Machine.Run", "", false},
	modeDispatch:     {"core.Runtime.dispatch-only", "TL-Ad", false},
	modeDispatchFull: {"core.Runtime.dispatch-only.full", "Full", false},
	modeLoggingFull:  {"trace.Writer.logging.full", "Full", true},
}

// execute runs one program on the interpreter in the given mode.
func execute(orig, rw *lir.Module, seed int64, mode execMode) (*interp.Result, error) {
	m := execModes[mode]
	if m.sampler == "" {
		mach, err := interp.New(orig, interp.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		return mach.Run()
	}
	strat, ok := sampler.ByName(m.sampler)
	if !ok {
		return nil, fmt.Errorf("unknown sampler %s", m.sampler)
	}
	cfg := core.Config{NumFuncs: len(orig.Funcs), Primary: strat, Seed: seed, Cost: core.DefaultCostModel()}
	var w *trace.Writer
	if m.logging {
		var err error
		if w, err = trace.NewWriter(io.Discard); err != nil {
			return nil, err
		}
		cfg.Writer, cfg.EnableMemLog, cfg.EnableSyncLog = w, true, true
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	mach, err := interp.New(rw, interp.Options{Seed: seed, Runtime: rt})
	if err != nil {
		return nil, err
	}
	res, err := mach.Run()
	if err != nil {
		return nil, err
	}
	if w != nil {
		if err := w.Close(mach.Meta(res)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeExtra runs modes ma and mb in turns, reps times, and returns the
// median over the repetitions of mb's extra wall time over ma. Each time
// of ma is first scaled to the application instructions mb executed,
// since the two modes interleave threads differently. Pairing runs that
// are adjacent in time cancels slow drifts in machine speed. probeExtra
// also returns the fastest run of ma and the results of both modes.
func (b *bench) probeExtra(orig, rw *lir.Module, seed int64, ma, mb execMode, reps, root, op int) (extra, fastA time.Duration, ra, rb *interp.Result, err error) {
	run := func(mode execMode) (time.Duration, *interp.Result, error) {
		runtime.GC()
		sp := b.tr.start(execModes[mode].name, root, op)
		t0 := time.Now()
		res, err := execute(orig, rw, seed, mode)
		d := time.Since(t0)
		if err != nil {
			b.tr.end(sp, 0)
			return 0, nil, fmt.Errorf("%s: %w", execModes[mode].name, err)
		}
		b.tr.end(sp, res.Instrs)
		return d, res, nil
	}
	var extras []float64
	for r := 0; r < reps; r++ {
		var da, db time.Duration
		if r%2 == 0 {
			if da, ra, err = run(ma); err == nil {
				db, rb, err = run(mb)
			}
		} else {
			if db, rb, err = run(mb); err == nil {
				da, ra, err = run(ma)
			}
		}
		if err != nil {
			return 0, 0, nil, nil, err
		}
		if r == 0 || da < fastA {
			fastA = da
		}
		scaled := float64(da) * float64(rb.BaseCycles) / float64(ra.BaseCycles)
		extras = append(extras, float64(db)-scaled)
	}
	return time.Duration(median(extras)), fastA, ra, rb, nil
}

// probeProgram probes every layer on one program and returns its
// full-logging log for the collector probe.
func (b *bench) probeProgram(p *program, seed int64, ls *layerSums) ([]byte, error) {
	op := b.tr.newOp()
	root := b.tr.start("probe."+p.key, 0, op)
	defer b.tr.end(root, 0)

	orig, err := asm.Assemble(p.key, p.src)
	if err != nil {
		return nil, err
	}
	rw, _, err := instrument.Rewrite(orig, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		return nil, err
	}
	// Dispatch checks add a few percent to a run, so that pair repeats
	// more often than the logging pair.
	extra, fast, base, disp, err := b.probeExtra(orig, rw, seed, modeBaseline, modeDispatch, 7, root, op)
	if err != nil {
		return nil, err
	}
	ls.interp += fast
	ls.instrs += base.Instrs
	ls.dispatchExtra += extra
	ls.dispatches += disp.RuntimeStats.DispatchChecks
	extra, _, _, logging, err := b.probeExtra(orig, rw, seed, modeDispatchFull, modeLoggingFull, 3, root, op)
	if err != nil {
		return nil, err
	}
	ls.encodeExtra += extra
	ls.logged += logging.RuntimeStats.LoggedMemOps + logging.RuntimeStats.LoggedSyncOps

	sampledLog, err := runLog(p, "TL-Ad", seed)
	if err != nil {
		return nil, err
	}
	t, err := b.measure("hb.detect.sampled", root, op, func(int) (uint64, error) {
		l, err := trace.ReadAll(bytes.NewReader(sampledLog))
		if err != nil {
			return 0, err
		}
		res, err := hb.Detect(l, hb.Options{SamplerBit: hb.AllEvents})
		if err != nil {
			return 0, err
		}
		return res.MemOps + res.SyncOps, nil
	})
	if err != nil {
		return nil, err
	}
	ls.sampled += t.d
	ls.sampledEvents += t.items

	log, err := runLog(p, "Full", seed)
	if err != nil {
		return nil, err
	}
	var decoded *trace.Log
	t, err = b.measure("trace.ReadAll", root, op, func(int) (uint64, error) {
		decoded, err = trace.ReadAll(bytes.NewReader(log))
		if err != nil {
			return 0, err
		}
		return uint64(decoded.NumEvents()), nil
	})
	if err != nil {
		return nil, err
	}
	ls.decode += t.d
	ls.events += t.items
	ls.decodeAlloc += t.alloc

	t, err = b.measure("hb.Replay", root, op, func(int) (uint64, error) {
		var n uint64
		err := hb.Replay(decoded, func(trace.Event) error { n++; return nil })
		return n, err
	})
	if err != nil {
		return nil, err
	}
	ls.merge += t.d
	ls.mergeAlloc += t.alloc

	for _, e := range []struct {
		name, engine string
		d            *time.Duration
	}{{"hb.Detect.epoch", hb.EngineEpoch, &ls.epoch}, {"hb.Detect.vc", "", &ls.vc}} {
		t, err = b.measure(e.name, root, op, func(int) (uint64, error) {
			res, err := hb.Detect(decoded, hb.Options{SamplerBit: hb.AllEvents, Engine: e.engine})
			if err != nil {
				return 0, err
			}
			return res.MemOps + res.SyncOps, nil
		})
		if err != nil {
			return nil, err
		}
		*e.d += t.d
	}
	decoded = nil

	t, err = b.measure("literace.DetectEngine", root, op, func(int) (uint64, error) {
		rep, err := literace.DetectEngine(bytes.NewReader(log), nil, nil, "")
		if err != nil {
			return 0, err
		}
		return rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed, nil
	})
	if err != nil {
		return nil, err
	}
	ls.engine += t.d

	// With a registry, DetectEngine records its decode and replay+detect
	// phases; the rest of the call is building the report.
	var reports []time.Duration
	t, err = b.measure("literace.DetectEngine.obs", root, op, func(int) (uint64, error) {
		reg := obs.New()
		t0 := time.Now()
		rep, err := literace.DetectEngine(bytes.NewReader(log), nil, reg, "")
		report := time.Since(t0)
		if err != nil {
			return 0, err
		}
		for _, ph := range reg.Snapshot().Phases {
			report -= time.Duration(ph.DurNanos)
		}
		reports = append(reports, report)
		return rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed, nil
	})
	if err != nil {
		return nil, err
	}
	ls.engineObs += t.d
	ls.report += reports[t.rep]

	t, err = b.measure("literace.StreamSession.shards-1", root, op, func(sp int) (uint64, error) {
		_, events, _, err := b.stream(log, 1, sp, op)
		return events, err
	})
	if err != nil {
		return nil, err
	}
	ls.stream1 += t.d

	// The four-shard session is the collector's default; its Finish time
	// and shard balance come from its fastest repetition.
	var finishes []time.Duration
	var skews []float64
	t, err = b.measure("literace.StreamSession.shards-4", root, op, func(sp int) (uint64, error) {
		finish, events, skew, err := b.stream(log, 4, sp, op)
		finishes, skews = append(finishes, finish), append(skews, skew)
		return events, err
	})
	if err != nil {
		return nil, err
	}
	ls.stream4 += t.d
	ls.streamAlloc += t.alloc
	ls.finish += finishes[t.rep]
	ls.skew += skews[t.rep]
	return log, nil
}

// stream feeds log to a StreamSession with the given shard count in
// 64 KiB pieces, as DetectStream does, and finishes it. It returns the
// Finish time, the events analyzed, and the shard skew (max ÷ mean of
// the per-shard event counts).
func (b *bench) stream(log []byte, shards, parent, op int) (time.Duration, uint64, float64, error) {
	s := literace.NewStreamSession(nil, literace.StreamOptions{Shards: shards})
	for off := 0; off < len(log); off += 64 << 10 {
		if err := s.Feed(log[off:min(off+64<<10, len(log))]); err != nil {
			_, _, _ = s.Finish()
			return 0, 0, 0, err
		}
	}
	sp := b.tr.start("literace.StreamSession.Finish", parent, op)
	t0 := time.Now()
	rep, res, err := s.Finish()
	finish := time.Since(t0)
	b.tr.end(sp, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	var sum, top uint64
	for _, n := range res.ShardEvents {
		sum += n
		top = max(top, n)
	}
	skew := 0.0
	if sum > 0 {
		skew = float64(top) * float64(len(res.ShardEvents)) / float64(sum)
	}
	return finish, rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed, skew, nil
}

// probeCollector ships every log probeReps times, one producer at a
// time, to one collector with the zero options, and measures the live
// heap the finalized sessions leave behind.
func (b *bench) probeCollector(logs [][]byte, ls *layerSums) error {
	op := b.tr.newOp()
	root := b.tr.start("probe.collector", 0, op)
	defer b.tr.end(root, 0)
	srv, err := startServer()
	if err != nil {
		return err
	}
	before := liveHeapMB()
	sessions := 0
	for i, log := range logs {
		t, err := b.measure("collector.ShipBytes", root, op, func(int) (uint64, error) {
			sessions++
			reply, err := collector.ShipBytes(log, collector.ShipOptions{
				Addr: srv.addr, Producer: fmt.Sprintf("probe-%d-%d", i, sessions),
			})
			if err != nil {
				return 0, err
			}
			if !reply.OK {
				return 0, fmt.Errorf("collector reply not OK: %s", reply.Err)
			}
			return uint64(reply.Events), nil
		})
		if err != nil {
			_ = srv.close()
			return err
		}
		ls.ship += t.d
		ls.logMB += float64(len(log)) / (1 << 20)
	}
	ls.retainedMB = (liveHeapMB() - before) / float64(sessions)
	return srv.close()
}
