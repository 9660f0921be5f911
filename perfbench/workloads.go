package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"sync"
	"time"

	"literace"
	"literace/internal/collector"
)

// minOps is the fewest timed operations a time-bounded run holds, so
// that op_ms_p90 has at least ten samples above it.
const minOps = 100

// fleetRounds is fleet-stream's fixed shipment count: in each round every
// producer ships one log of every matrix program, to a fresh collector.
const (
	fleetRounds = 20
	producers   = 2
)

// seedsPerProgram is how many schedule seeds, and so inputs, every
// workload uses per matrix program.
const seedsPerProgram = 2

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	fixedOps int
	tr       *tracer // non-nil in a traced run
}

// sample is the outcome of one operation.
type sample struct {
	lat       time.Duration
	traced    bool
	events    uint64 // trace events analyzed
	instrs    uint64 // virtual instructions of the execution behind the log
	execMem   uint64 // memory operations executed
	loggedMem uint64 // memory operations logged
	confirmed int    // static races confirmed
	fullRaces int    // static races under full logging of the same (program, seed)
	err       error
}

// tally is what a workload's timed region produced.
type tally struct {
	samples []sample
	busy    time.Duration // wall time the operations kept the system busy
	allocs  uint64        // heap bytes allocated in the timed region
	peaks   []float64     // highest heap object MB of each input cycle or round
}

func (t *tally) failed() int {
	n := 0
	for _, s := range t.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (b *bench) run() (*result, error) {
	var loop func([]*program) (*tally, error)
	switch b.workload {
	case "sampled-run":
		loop = b.sampledRun
	case "detect-full":
		loop = b.detectFull
	case "fleet-stream":
		loop = b.fleetStream
	default:
		return nil, fmt.Errorf("unknown workload %q (want sampled-run, detect-full or fleet-stream)", b.workload)
	}
	progs, setups, err := b.setup(b.workload == "fleet-stream")
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t, err := loop(progs)
	if err != nil {
		return nil, err
	}
	if len(t.samples) == 0 {
		return nil, fmt.Errorf("no operations ran")
	}
	res := &result{Attempted: len(t.samples), Failed: t.failed()}
	res.Correct = res.Failed == 0
	if b.tr == nil {
		res.Metrics = t.endToEnd(setups)
		return res, nil
	}
	res.Metrics, err = b.perLayer(progs, setups, t)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// perLayer derives the per-layer metrics of a traced run from its set-up,
// its loop and the layer probe.
func (b *bench) perLayer(progs []*program, setups []setupTimes, t *tally) (map[string]metric, error) {
	layers, err := b.layerProbe(progs)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	var asmMS, instMS []float64
	for _, st := range setups {
		asmMS = append(asmMS, ms(st.asm))
		instMS = append(instMS, ms(st.inst))
	}
	layers["asm.assemble_ms"] = median(asmMS)
	layers["instrument.rewrite_ms"] = median(instMS)
	var traced, untraced []float64
	for _, s := range t.samples {
		if s.traced {
			traced = append(traced, ms(s.lat))
		} else {
			untraced = append(untraced, ms(s.lat))
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("traced run needs both traced and untraced operations")
	}
	layers["tracing_overhead_ratio"] = median(traced) / median(untraced)
	out := make(map[string]metric)
	for _, d := range perLayerMetrics {
		v, ok := layers[d.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd derives the end-to-end metrics of an untraced run.
func (t *tally) endToEnd(setups []setupTimes) map[string]metric {
	var lats []float64
	var events, instrs, execMem, loggedMem uint64
	var confirmed, full int
	for _, s := range t.samples {
		lats = append(lats, ms(s.lat))
		events += s.events
		instrs += s.instrs
		execMem += s.execMem
		loggedMem += s.loggedMem
		confirmed += s.confirmed
		full += s.fullRaces
	}
	var setup []float64
	for _, st := range setups {
		setup = append(setup, st.total.Seconds())
	}
	n := float64(len(t.samples))
	v := map[string]float64{
		"setup_s":               median(setup),
		"op_ms_p50":             quantile(lats, 0.5),
		"op_ms_p90":             quantile(lats, 0.9),
		"instrs_per_s":          float64(instrs) / t.busy.Seconds(),
		"events_per_s":          float64(events) / t.busy.Seconds(),
		"alloc_bytes_per_event": float64(t.allocs) / float64(events),
		"peak_heap_mb":          median(t.peaks),
		"esr":                   float64(loggedMem) / float64(execMem),
		"detection_rate":        float64(confirmed) / float64(full),
		"ok_ops_ratio":          (n - float64(t.failed())) / n,
	}
	out := make(map[string]metric)
	for _, d := range endToEndMetrics {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// call runs f under a span named name and returns its error.
func call(tr *tracer, name string, parent, op int, f func() (uint64, error)) error {
	sp := tr.start(name, parent, op)
	items, err := f()
	tr.end(sp, items)
	return err
}

// closedLoop runs one client over a cycle of n inputs: one untimed
// warm-up cycle, then whole timed cycles until the time is up and at
// least minOps operations ran, or exactly fixedOps operations. A forced
// GC precedes the timed region, so every run starts it with the same
// heap. A traced run measures a third of the time and alternates whole
// cycles between traced and untraced operations.
func (b *bench) closedLoop(n int, op func(i int, tr *tracer) sample) *tally {
	for i := 0; i < n; i++ {
		op(i, nil)
	}
	seconds, least := b.seconds, minOps
	if b.tr != nil {
		seconds, least = b.seconds/3, 2*n
	}
	t := &tally{}
	runtime.GC()
	a0, heap := allocBytes(), watchHeap()
	deadline := time.Now().Add(seconds)
	for k := 0; ; k++ {
		if b.fixedOps > 0 {
			if k >= b.fixedOps {
				break
			}
		} else if k%n == 0 && k >= least && !time.Now().Before(deadline) {
			break
		}
		if k > 0 && k%n == 0 {
			t.peaks = append(t.peaks, heap.cut())
		}
		var tr *tracer
		if b.tr != nil && (k/n)%2 == 1 {
			tr = b.tr
		}
		s := op(k%n, tr)
		s.traced = tr != nil
		t.busy += s.lat
		t.samples = append(t.samples, s)
	}
	t.peaks = append(t.peaks, heap.cut())
	heap.stop()
	t.allocs = allocBytes() - a0
	return t
}

// sampledRun is the deployment path: Program.Run under TL-Ad for one
// (program, schedule seed), then DetectEngine on its log. Two schedule
// seeds per matrix program make an 8-input cycle.
func (b *bench) sampledRun(progs []*program) (*tally, error) {
	seeds := scheduleSeeds(b.seed, seedsPerProgram)
	var ins []*input
	for i, p := range progs {
		for _, seed := range seeds[i] {
			full, err := runLog(p, "Full", seed)
			if err != nil {
				return nil, err
			}
			fullWant, err := reference(full)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.key, err)
			}
			sampled, err := runLog(p, "TL-Ad", seed)
			if err != nil {
				return nil, err
			}
			want, err := reference(sampled)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.key, err)
			}
			ins = append(ins, &input{p: p, seed: seed, want: want, full: fullWant})
		}
	}
	return b.closedLoop(len(ins), func(i int, tr *tracer) sample { return sampledOp(ins[i], tr) }), nil
}

func sampledOp(in *input, tr *tracer) sample {
	op := tr.newOp()
	root := tr.start("sampled-run.op", 0, op)
	var rr *literace.RunResult
	var rep *literace.Report
	t0 := time.Now()
	var log bytes.Buffer
	err := call(tr, "literace.Program.Run", root, op, func() (uint64, error) {
		var err error
		rr, err = in.p.prog.Run(literace.Config{Sampler: "TL-Ad", Seed: in.seed, LogTo: &log})
		if err != nil {
			return 0, err
		}
		return rr.Meta.Instrs, nil
	})
	if err == nil {
		err = call(tr, "literace.DetectEngine", root, op, func() (uint64, error) {
			var err error
			rep, err = literace.DetectEngine(bytes.NewReader(log.Bytes()), nil, nil, "")
			if err != nil {
				return 0, err
			}
			return rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed, nil
		})
	}
	s := sample{lat: time.Since(t0)}
	tr.end(root, 0)
	if err == nil {
		err = checkReport(rep, in.want)
	}
	if err != nil {
		s.err = fmt.Errorf("sampled-run %s seed %d: %w", in.p.key, in.seed, err)
		return s
	}
	confirmed := reportRaces(rep, true)
	for k := range confirmed {
		if !in.full.races[k] {
			s.err = fmt.Errorf("sampled-run %s seed %d: race %s not found under full logging", in.p.key, in.seed, k)
		}
	}
	s.events = rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed
	s.instrs = rr.Meta.Instrs
	s.execMem, s.loggedMem = rr.Meta.MemOps, rr.LoggedMemOps
	s.confirmed, s.fullRaces = len(confirmed), len(in.full.races)
	return s
}

// detectFull is offline analysis of complete logs: DetectEngine with the
// default engine over pre-generated full-logging logs.
func (b *bench) detectFull(progs []*program) (*tally, error) {
	ins, err := fullInputs(progs, scheduleSeeds(b.seed, seedsPerProgram))
	if err != nil {
		return nil, err
	}
	return b.closedLoop(len(ins), func(i int, tr *tracer) sample { return detectOp(ins[i], tr) }), nil
}

func detectOp(in *input, tr *tracer) sample {
	op := tr.newOp()
	root := tr.start("detect-full.op", 0, op)
	var rep *literace.Report
	t0 := time.Now()
	err := call(tr, "literace.DetectEngine", root, op, func() (uint64, error) {
		var err error
		rep, err = literace.DetectEngine(bytes.NewReader(in.log), nil, nil, "")
		if err != nil {
			return 0, err
		}
		return rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed, nil
	})
	s := sample{lat: time.Since(t0)}
	tr.end(root, 0)
	if err == nil {
		err = checkReport(rep, in.want)
	}
	if err != nil {
		s.err = fmt.Errorf("detect-full %s: %w", in.p.key, err)
		return s
	}
	s.events = rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed
	s.instrs = rep.Meta.Instrs
	s.execMem, s.loggedMem = rep.Meta.MemOps, rep.MemOpsAnalyzed
	s.confirmed, s.fullRaces = len(reportRaces(rep, true)), len(in.want.races)
	return s
}

// fleetStream ships full-logging logs to an in-process collector over
// loopback: producers goroutines, one connection each, every shipment
// under a fresh producer name. The shipment count is fixed (fleetRounds
// rounds, a third of them in a traced run). Each round ships one log per
// program, from the seeds in turn, to a fresh collector, so the finalized
// sessions it retains stay bounded by one round.
func (b *bench) fleetStream(progs []*program) (*tally, error) {
	ins, err := fullInputs(progs, scheduleSeeds(b.seed, seedsPerProgram))
	if err != nil {
		return nil, err
	}
	rounds := fleetRounds
	switch perRound := producers * len(progs); {
	case b.fixedOps > 0:
		rounds = (b.fixedOps + perRound - 1) / perRound
	case b.tr != nil:
		rounds = (fleetRounds + 2) / 3
	}
	// Warm-up round, untimed.
	if _, _, err := b.fleetRound(ins[:len(progs)], -1, nil); err != nil {
		return nil, err
	}
	t := &tally{}
	runtime.GC()
	a0, heap := allocBytes(), watchHeap()
	for r := 0; r < rounds; r++ {
		var tr *tracer
		if b.tr != nil && r%2 == 1 {
			tr = b.tr
		}
		set := ins[r%seedsPerProgram*len(progs) : (r%seedsPerProgram+1)*len(progs)]
		samples, busy, err := b.fleetRound(set, r, tr)
		if err != nil {
			heap.stop()
			return nil, err
		}
		t.samples = append(t.samples, samples...)
		t.busy += busy
		t.peaks = append(t.peaks, heap.cut())
	}
	heap.stop()
	t.allocs = allocBytes() - a0
	return t, nil
}

// fleetRound starts a collector, lets each producer ship every input
// once (in rotated orders), and stops the collector. busy is the wall
// time from the first shipment to the last reply.
func (b *bench) fleetRound(ins []*input, round int, tr *tracer) (samples []sample, busy time.Duration, err error) {
	srv, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ins {
				in := ins[(w+k)%len(ins)]
				name := fmt.Sprintf("bench-%d-r%d-w%d-%d", b.seed, round, w, k)
				s := shipOp(srv.addr, name, in, tr)
				s.traced = tr != nil
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	busy = time.Since(t0)
	if err := srv.close(); err != nil {
		return nil, 0, err
	}
	return samples, busy, nil
}

func shipOp(addr, producer string, in *input, tr *tracer) sample {
	op := tr.newOp()
	root := tr.start("fleet-stream.op", 0, op)
	var reply *collector.FinalReply
	t0 := time.Now()
	err := call(tr, "collector.ShipBytes", root, op, func() (uint64, error) {
		var err error
		reply, err = collector.ShipBytes(in.log, collector.ShipOptions{Addr: addr, Producer: producer})
		if err != nil {
			return 0, err
		}
		return uint64(reply.Events), nil
	})
	s := sample{lat: time.Since(t0)}
	tr.end(root, 0)
	if err == nil {
		err = checkReply(reply, in.want)
	}
	if err != nil {
		s.err = fmt.Errorf("fleet-stream %s: %w", in.p.key, err)
		return s
	}
	s.events = uint64(reply.Events)
	s.instrs = in.want.instrs
	s.execMem, s.loggedMem = in.want.execMem, in.want.loggedMem
	s.confirmed, s.fullRaces = reply.Races-reply.Unconfirmed, len(in.want.races)
	return s
}

// replyRace matches one race line of a FinalReply's report text.
var replyRace = regexp.MustCompile(`(?m)^\s+\S+\s+(\S+) <-> (\S+)\s`)

// checkReply compares a collector's FinalReply for a pristine log with
// the log's oracle.
func checkReply(r *collector.FinalReply, want oracle) error {
	got := make(map[string]bool)
	for _, m := range replyRace.FindAllStringSubmatch(r.Report, -1) {
		got[m[1]+" <-> "+m[2]] = true
	}
	switch {
	case !r.OK || r.Err != "":
		return fmt.Errorf("collector reply not OK: %s", r.Err)
	case !r.Complete || r.Degraded || r.Unconfirmed != 0:
		return fmt.Errorf("collector reply complete=%v degraded=%v unconfirmed=%d on a pristine log",
			r.Complete, r.Degraded, r.Unconfirmed)
	case uint64(r.Events) != want.events:
		return fmt.Errorf("collector analyzed %d events, reference %d", r.Events, want.events)
	case r.Races != len(want.races) || !sameSet(got, want.races):
		return fmt.Errorf("collector reported %d static races, reference %d (or different pairs)", r.Races, len(want.races))
	}
	return nil
}
