package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"literace"
	"literace/internal/collector"
	"literace/internal/hb"
	"literace/internal/lir"
	"literace/internal/race"
	"literace/internal/trace"
	"literace/internal/workloads"
)

// matrix is the program set every workload draws from, at default scale.
var matrix = []string{"dryad", "apache-1", "concrt-msg", "firefox-render"}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 101

// program is one matrix entry, assembled and instrumented by setup.
type program struct {
	key  string
	src  string
	prog *literace.Program
}

// input is one log an operation consumes, with its oracle.
type input struct {
	p    *program
	seed int64
	log  []byte // the log itself, for workloads that consume it as input
	want oracle
	full oracle // sampled-run: the oracle of the full-logging run of the same (program, seed)
}

// oracle is the reference outcome of one log, computed once per run with
// hb.DetectReference and never timed.
type oracle struct {
	races     map[string]bool // static races, in raceKey form
	events    uint64          // memory + sync events analyzed
	instrs    uint64          // virtual instructions of the run that wrote the log
	execMem   uint64          // memory operations that run executed
	loggedMem uint64          // memory operations it logged
}

func raceKey(a, b literace.PC) string {
	return fmt.Sprintf("fn%d:%d <-> fn%d:%d", a.Func, a.Index, b.Func, b.Index)
}

func pcOf(pc lir.PC) literace.PC { return literace.PC{Func: pc.Func, Index: pc.Index} }

func reference(log []byte) (oracle, error) {
	l, err := trace.ReadAll(bytes.NewReader(log))
	if err != nil {
		return oracle{}, fmt.Errorf("reference decode: %w", err)
	}
	res, err := hb.DetectReference(l, hb.Options{SamplerBit: hb.AllEvents})
	if err != nil {
		return oracle{}, fmt.Errorf("reference detect: %w", err)
	}
	set := race.NewSet()
	set.AddResult(res)
	o := oracle{
		races:  make(map[string]bool),
		events: res.MemOps + res.SyncOps,
		instrs: l.Meta.Instrs, execMem: l.Meta.MemOps, loggedMem: res.MemOps,
	}
	for _, st := range set.Races() {
		o.races[raceKey(pcOf(st.Key.A), pcOf(st.Key.B))] = true
	}
	return o, nil
}

// reportRaces returns a report's static races in raceKey form.
func reportRaces(rep *literace.Report, confirmedOnly bool) map[string]bool {
	out := make(map[string]bool)
	for _, rc := range rep.Races {
		if !confirmedOnly || !rc.Unconfirmed {
			out[raceKey(rc.FirstPC, rc.SecondPC)] = true
		}
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkReport compares a batch report with the oracle of its log.
func checkReport(rep *literace.Report, want oracle) error {
	switch {
	case rep.Degraded:
		return fmt.Errorf("degraded report on a pristine log")
	case rep.MemOpsAnalyzed+rep.SyncOpsAnalyzed != want.events:
		return fmt.Errorf("analyzed %d events, reference %d", rep.MemOpsAnalyzed+rep.SyncOpsAnalyzed, want.events)
	case !sameSet(reportRaces(rep, false), want.races):
		return fmt.Errorf("%d static races, reference %d (or different pairs)", len(rep.Races), len(want.races))
	}
	return nil
}

// scheduleSeeds derives n schedule seeds per matrix program from the
// benchmark seed.
func scheduleSeeds(seed int64, n int) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, len(matrix))
	for i := range out {
		for j := 0; j < n; j++ {
			out[i] = append(out[i], 1+rng.Int63n(1<<31))
		}
	}
	return out
}

// runLog executes p under sampler with the given schedule seed and
// returns the encoded log.
func runLog(p *program, sampler string, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := p.prog.Run(literace.Config{Sampler: sampler, Seed: seed, LogTo: &buf}); err != nil {
		return nil, fmt.Errorf("%s %s seed %d: %w", p.key, sampler, seed, err)
	}
	return buf.Bytes(), nil
}

// fullInputs generates a full-logging log and its oracle for every
// (schedule seed, matrix program), seed-major. This is load generation:
// nothing here is timed.
func fullInputs(progs []*program, seeds [][]int64) ([]*input, error) {
	var out []*input
	for j := range seeds[0] {
		for i, p := range progs {
			log, err := runLog(p, "Full", seeds[i][j])
			if err != nil {
				return nil, err
			}
			want, err := reference(log)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.key, err)
			}
			out = append(out, &input{p: p, seed: seeds[i][j], log: log, want: want})
		}
	}
	return out, nil
}

// setupTimes is one set-up's wall time and, in a traced run, its
// per-layer parts.
type setupTimes struct{ total, asm, inst time.Duration }

// setup assembles and instruments every matrix program, and on
// fleet-stream starts (and then stops) a collector, setupReps times.
// Generating the program sources is not timed. It returns the programs
// of the last repetition and every timing.
func (b *bench) setup(withServer bool) ([]*program, []setupTimes, error) {
	var srcs []string
	for _, key := range matrix {
		wl, ok := workloads.ByKey(key)
		if !ok {
			return nil, nil, fmt.Errorf("unknown benchmark %s", key)
		}
		srcs = append(srcs, wl.Source(0))
	}
	var progs []*program
	var times []setupTimes
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		op := b.tr.newOp()
		root := b.tr.start("setup", 0, op)
		var st setupTimes
		t0 := time.Now()
		progs = progs[:0]
		for i, key := range matrix {
			sp := b.tr.start("asm.assemble", root, op)
			prog, err := literace.Assemble(key, srcs[i])
			st.asm += b.tr.end(sp, 0)
			if err != nil {
				return nil, nil, err
			}
			sp = b.tr.start("instrument.rewrite", root, op)
			_, err = prog.Instrument()
			st.inst += b.tr.end(sp, 0)
			if err != nil {
				return nil, nil, err
			}
			progs = append(progs, &program{key: key, src: srcs[i], prog: prog})
		}
		var srv *server
		if withServer {
			s, err := startServer()
			if err != nil {
				return nil, nil, err
			}
			srv = s
		}
		st.total = time.Since(t0)
		b.tr.end(root, 0)
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, nil, err
			}
		}
		times = append(times, st)
	}
	return progs, times, nil
}

// server is an in-process collector on a loopback listener, with the
// zero collector.Options.
type server struct {
	srv   *collector.Server
	addr  string
	serve chan error
}

func startServer() (*server, error) {
	srv, err := collector.New(collector.Options{})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("collector listen: %w", err)
	}
	s := &server{srv: srv, addr: lis.Addr().String(), serve: make(chan error, 1)}
	go func() { s.serve <- srv.Serve(lis) }()
	return s, nil
}

// close stops the collector and waits for Serve to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.serve; err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("collector close: %w", err)
	}
	return nil
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

const heapObjects = "/memory/classes/heap/objects:bytes"

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// liveHeapMB forces a collection and returns the heap objects left.
func liveHeapMB() float64 {
	runtime.GC()
	return mb(readUint(heapObjects))
}

// heapWatch samples the heap object bytes every millisecond and keeps
// the highest reading of the current interval.
type heapWatch struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			h.note()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) note() {
	v := readUint(heapObjects)
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

// cut returns the interval's peak in MB and starts a new interval.
func (h *heapWatch) cut() float64 {
	h.note()
	return mb(h.peak.Swap(0))
}

// stop ends the sampling and waits for the sampler to exit.
func (h *heapWatch) stop() {
	close(h.quit)
	<-h.done
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
