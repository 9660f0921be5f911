// Package interp executes LIR modules: a deterministic multithreaded
// interpreter that stands in for the native execution environment of the
// original LiteRace. Threads are interleaved at instruction granularity by
// a seeded preemptive scheduler, so a (module, seed) pair always produces
// the same execution — and different seeds produce different interleavings,
// playing the role of the paper's three runs per benchmark.
//
// When Options.Runtime is set the interpreter calls into package core at
// the instrumentation points the rewriter inserted (Dispatch, MLog) and at
// every synchronization operation, producing the LiteRace event log.
package interp

import (
	"fmt"
	"math/rand"
	"time"

	"literace/internal/core"
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/trace"
)

// Memory layout constants (word addresses).
const (
	// globalBase is where module globals start; page 0 is a null guard.
	globalBase = uint64(lir.PageWords)
	// StackBase is where per-thread stacks start. Addresses at or above
	// it are "stack memory" for the paper's non-stack instruction counts.
	StackBase = uint64(1) << 40
)

// Options configures an execution.
type Options struct {
	// Seed drives the scheduler and the Rand instruction.
	Seed int64
	// Runtime, when non-nil, receives dispatch checks and event logging.
	Runtime *core.Runtime
	// MaxInstrs aborts runaway programs; default 1e9.
	MaxInstrs uint64
	// Quantum is the maximum instructions per scheduling slice (the
	// actual slice length is uniform in [1, Quantum]); default 64.
	Quantum int
	// StackWords is each thread's stack size; default 1<<16.
	StackWords uint64
	// MaxThreads bounds thread creation; default 1024.
	MaxThreads int
	// DropPrints discards Print values instead of retaining them in
	// Result.Prints.
	DropPrints bool
	// Obs, when non-nil, receives execution telemetry at the end of Run:
	// instruction/memory/sync totals, scheduler slice and preemption
	// counts, and virtual cycles split by instruction category. Per-
	// instruction category accounting only happens when Obs is set.
	// When set, live interp.live.* gauges are also refreshed every
	// liveInterval scheduling slices while the run is in flight.
	Obs *obs.Registry
	// OnLive, when non-nil, is invoked on the interpreter's goroutine
	// every liveInterval scheduling slices with a progress snapshot. The
	// literace pipeline uses it to fold runtime counters and publish
	// live ESR gauges mid-run, keeping all ThreadState access on the one
	// goroutine that owns it.
	OnLive func(LiveStats)
}

// LiveStats is a mid-run progress snapshot handed to Options.OnLive.
type LiveStats struct {
	Instrs      uint64
	MemOps      uint64
	SyncOps     uint64
	Slices      uint64
	Preemptions uint64
	Threads     int
}

// liveInterval is how many scheduling slices pass between OnLive calls
// and live gauge refreshes. A power of two keeps the check one AND.
const liveInterval = 256

func (o *Options) setDefaults() {
	if o.MaxInstrs == 0 {
		o.MaxInstrs = 1e9
	}
	if o.Quantum <= 0 {
		o.Quantum = 64
	}
	if o.StackWords == 0 {
		o.StackWords = 1 << 16
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 1024
	}
}

// Fault is a runtime error in the interpreted program.
type Fault struct {
	TID  int32
	Func string
	PC   int32
	Msg  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("interp: thread %d at %s:%d: %s", f.TID, f.Func, f.PC, f.Msg)
}

// Result summarizes an execution.
type Result struct {
	Instrs      uint64 // every executed instruction, including MLog/Dispatch
	BaseCycles  uint64 // application instructions only (1 cycle each)
	Cycles      uint64 // BaseCycles + instrumentation ExtraCycles
	MemOps      uint64 // dynamic loads/stores
	StackMemOps uint64 // subset touching thread stacks
	SyncOps     uint64 // dynamic synchronization operations
	Threads     int    // threads ever created
	Prints      []int64
	Wall        time.Duration

	// RuntimeStats is the final instrumentation counters (zero value when
	// the run was uninstrumented).
	RuntimeStats core.Stats
}

type tstate uint8

const (
	tRunnable tstate = iota
	tBlocked
	tDone
)

type frame struct {
	fn     *lir.Function
	fnIdx  int32
	pc     int32
	regs   []uint64 // window of the thread's register stack at base
	base   int
	retReg int32  // register in the caller frame receiving the return value
	mask   uint32 // sampler mask established by the dispatch check
}

type thread struct {
	tid    int32
	frames []frame
	state  tstate
	ts     *core.ThreadState // nil when uninstrumented

	// regStack holds every live frame's registers, innermost on top;
	// regTop is the first free word.
	regStack []uint64
	regTop   int

	stackNext uint64
	stackEnd  uint64
}

// minRegStack is the register stack a thread starts with, in words.
const minRegStack = 128

func (t *thread) top() *frame { return &t.frames[len(t.frames)-1] }

// pushFrame enters fn with a zeroed register window taken from the top of
// the register stack. Growing the stack re-points every live frame's
// window at the new array.
func (t *thread) pushFrame(fn *lir.Function, fnIdx, retReg int32) *frame {
	n := int(fn.NRegs)
	if t.regTop+n > len(t.regStack) {
		grown := make([]uint64, max(2*len(t.regStack), t.regTop+n, minRegStack))
		copy(grown, t.regStack[:t.regTop])
		for i := range t.frames {
			fr := &t.frames[i]
			fr.regs = grown[fr.base : fr.base+len(fr.regs)]
		}
		t.regStack = grown
	}
	regs := t.regStack[t.regTop : t.regTop+n]
	clear(regs)
	t.frames = append(t.frames, frame{fn: fn, fnIdx: fnIdx, regs: regs, base: t.regTop, retReg: retReg})
	t.regTop += n
	return t.top()
}

// popFrame leaves the top frame, releasing its register window.
func (t *thread) popFrame() {
	t.regTop = t.top().base
	t.frames = t.frames[:len(t.frames)-1]
}

// runQueue is the FIFO of runnable thread IDs. Popping advances head; a
// push into a full array first slides the queued IDs to the front, so the
// array stops growing once it holds the most threads ever queued at once.
type runQueue struct {
	ids  []int32
	head int
}

func (q *runQueue) push(tid int32) {
	if len(q.ids) == cap(q.ids) && q.head > 0 {
		n := copy(q.ids, q.ids[q.head:])
		q.ids, q.head = q.ids[:n], 0
	}
	q.ids = append(q.ids, tid)
}

func (q *runQueue) pop() (int32, bool) {
	if q.head == len(q.ids) {
		return 0, false
	}
	tid := q.ids[q.head]
	q.head++
	return tid, true
}

type mutexState struct {
	owner   int32 // -1 when free
	waiters []int32
}

type eventState struct {
	signaled bool
	waiters  []int32
}

// Machine executes one module.
type Machine struct {
	mod  *lir.Module
	opts Options

	mem   *memory
	alloc *allocator

	globalAddrs []uint64

	threads []*thread
	runq    runQueue
	alive   int

	mutexes map[uint64]*mutexState
	events  map[uint64]*eventState
	joiners map[int32][]int32 // target tid -> blocked joiners

	schedRng *rand.Rand
	progRng  *rand.Rand

	res         Result
	yieldSlice  bool
	totalSpawns int

	// Scheduler telemetry, published to opts.Obs after the run.
	slices      uint64 // scheduling slices started
	preemptions uint64 // slices ended by quantum expiry (involuntary)
	// catCycles counts application cycles per instruction category;
	// maintained only when opts.Obs is set (obsCats non-nil).
	catCycles [numInstrCats]uint64
	obsCats   bool

	// covMem caches Runtime.CoverageEnabled so the Load/Store hot path
	// pays one boolean test when coverage profiling is off.
	covMem bool
}

// New prepares a machine for mod. The module must be valid and its entry
// function must take no parameters.
func New(mod *lir.Module, opts Options) (*Machine, error) {
	if err := mod.Validate(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	if mod.Funcs[mod.Entry].NParams != 0 {
		return nil, fmt.Errorf("interp: entry function %s takes parameters", mod.Funcs[mod.Entry].Name)
	}
	opts.setDefaults()

	m := &Machine{
		mod:      mod,
		opts:     opts,
		mem:      newMemory(),
		mutexes:  make(map[uint64]*mutexState),
		events:   make(map[uint64]*eventState),
		joiners:  make(map[int32][]int32),
		schedRng: rand.New(rand.NewSource(opts.Seed)),
		progRng:  rand.New(rand.NewSource(opts.Seed ^ 0x5DEECE66D)),
		obsCats:  opts.Obs != nil,
	}
	if opts.Runtime != nil {
		m.covMem = opts.Runtime.CoverageEnabled()
	}

	// Lay out globals.
	addr := globalBase
	m.globalAddrs = make([]uint64, len(mod.Globals))
	for i, g := range mod.Globals {
		m.globalAddrs[i] = addr
		m.mem.mapRange(addr, uint64(g.Size))
		for j, v := range g.Init {
			m.mem.store(addr+uint64(j), v)
		}
		addr += uint64(g.Size)
	}
	// Heap begins at the next page boundary.
	heapBase := (addr + lir.PageWords - 1) / lir.PageWords * lir.PageWords
	if heapBase == 0 {
		heapBase = globalBase
	}
	m.alloc = newAllocator(m.mem, heapBase)

	m.spawn(int32(mod.Entry), 0, false)
	return m, nil
}

// spawn creates a thread running function fn with optional argument arg.
func (m *Machine) spawn(fn int32, arg uint64, hasArg bool) *thread {
	tid := int32(len(m.threads))
	th := &thread{
		tid:       tid,
		state:     tRunnable,
		stackNext: StackBase + uint64(tid)*m.opts.StackWords,
		stackEnd:  StackBase + uint64(tid+1)*m.opts.StackWords,
	}
	f := m.mod.Funcs[fn]
	fr := th.pushFrame(f, fn, -1)
	if hasArg && f.NParams > 0 {
		fr.regs[0] = arg
	}
	m.mem.stackEnd = th.stackEnd
	if m.opts.Runtime != nil {
		th.ts = m.opts.Runtime.Thread(tid)
	}
	m.threads = append(m.threads, th)
	m.runq.push(tid)
	m.alive++
	m.totalSpawns++
	return th
}

// Run executes the program to completion and returns the result. The
// result is also returned alongside a Fault so callers can inspect partial
// progress.
func (m *Machine) Run() (*Result, error) {
	start := time.Now()
	err := m.loop()
	m.res.Wall = time.Since(start)
	m.res.Threads = m.totalSpawns
	m.res.Cycles = m.res.BaseCycles
	if m.opts.Runtime != nil {
		m.res.RuntimeStats = m.opts.Runtime.Finalize()
		m.res.Cycles += m.res.RuntimeStats.ExtraCycles
	}
	m.publishObs()
	return &m.res, err
}

// publishObs pushes the execution's telemetry into opts.Obs.
func (m *Machine) publishObs() {
	reg := m.opts.Obs
	if reg == nil {
		return
	}
	reg.Counter("interp.instrs").Add(m.res.Instrs)
	reg.Counter("interp.base_cycles").Add(m.res.BaseCycles)
	reg.Counter("interp.mem_ops").Add(m.res.MemOps)
	reg.Counter("interp.stack_mem_ops").Add(m.res.StackMemOps)
	reg.Counter("interp.sync_ops").Add(m.res.SyncOps)
	reg.Counter("interp.threads").Add(uint64(m.totalSpawns))
	reg.Counter("interp.sched_slices").Add(m.slices)
	reg.Counter("interp.sched_preemptions").Add(m.preemptions)
	for c := instrCat(0); c < numInstrCats; c++ {
		reg.Counter("interp.cycles." + c.String()).Add(m.catCycles[c])
	}
}

func (m *Machine) loop() error {
	schedLog := m.opts.Runtime != nil && m.opts.Runtime.SchedLogEnabled()
	live := m.opts.Obs != nil || m.opts.OnLive != nil
	for m.alive > 0 {
		tid, ok := m.runq.pop()
		if !ok {
			return m.deadlockError()
		}
		th := m.threads[tid]
		if th.state != tRunnable {
			continue
		}
		quantum := 1 + m.schedRng.Intn(m.opts.Quantum)
		m.yieldSlice = false
		sliceIdx := m.slices
		m.slices++
		if schedLog && th.ts != nil {
			if err := th.ts.LogSched(trace.OpSliceBegin, sliceIdx, m.res.Instrs, m.curPC(th)); err != nil {
				return err
			}
		}
		if err := m.runSlice(th, quantum); err != nil {
			return err
		}
		involuntary := th.state == tRunnable && !m.yieldSlice
		if th.state == tRunnable {
			if involuntary {
				m.preemptions++ // quantum expired with the thread still willing to run
			}
			m.runq.push(tid)
		}
		if schedLog && th.ts != nil {
			op := trace.OpSliceEnd
			if involuntary {
				op = trace.OpSlicePreempt
			}
			if err := th.ts.LogSched(op, sliceIdx, m.res.Instrs, m.curPC(th)); err != nil {
				return err
			}
		}
		if live && m.slices%liveInterval == 0 {
			m.publishLive()
		}
	}
	return nil
}

// curPC is the thread's current original-program PC, or the zero PC for
// a thread with no frames left (it just returned from its entry).
func (m *Machine) curPC(th *thread) lir.PC {
	if len(th.frames) == 0 {
		return lir.PC{}
	}
	fr := th.top()
	return origPC(fr, fr.pc)
}

// publishLive refreshes the interp.live.* gauges and fires the OnLive
// hook. Runs on the interpreter goroutine, so the hook may safely touch
// per-thread runtime state (FlushLiveStats, PublishESR).
func (m *Machine) publishLive() {
	ls := LiveStats{
		Instrs:      m.res.Instrs,
		MemOps:      m.res.MemOps,
		SyncOps:     m.res.SyncOps,
		Slices:      m.slices,
		Preemptions: m.preemptions,
		Threads:     m.totalSpawns,
	}
	if reg := m.opts.Obs; reg != nil {
		reg.Gauge("interp.live.instrs").Set(float64(ls.Instrs))
		reg.Gauge("interp.live.mem_ops").Set(float64(ls.MemOps))
		reg.Gauge("interp.live.sync_ops").Set(float64(ls.SyncOps))
		reg.Gauge("interp.live.slices").Set(float64(ls.Slices))
		reg.Gauge("interp.live.preemptions").Set(float64(ls.Preemptions))
		reg.Gauge("interp.live.threads").Set(float64(ls.Threads))
	}
	if m.opts.OnLive != nil {
		m.opts.OnLive(ls)
	}
}

func (m *Machine) deadlockError() error {
	for _, th := range m.threads {
		if th.state == tBlocked {
			fr := th.top()
			return &Fault{TID: th.tid, Func: fr.fn.Name, PC: fr.pc,
				Msg: fmt.Sprintf("deadlock: %d threads blocked, none runnable", m.alive)}
		}
	}
	return fmt.Errorf("interp: internal error: alive=%d but no blocked threads", m.alive)
}

// PartialMeta snapshots trace metadata mid-run: the counters accumulated
// so far, without finalizing the runtime. The trace writer calls it (via
// literace's checkpoint wiring) when emitting periodic metadata
// checkpoints, so a log truncated by a crash still carries usable
// counters. Must be called from the interpreter's goroutine.
func (m *Machine) PartialMeta() trace.Meta {
	res := m.res
	res.Threads = m.totalSpawns
	res.Cycles = res.BaseCycles
	meta := m.Meta(&res)
	if rt := m.opts.Runtime; rt != nil {
		// Stats aren't folded in until Finalize; leave SampledOps empty
		// rather than report stale zeroes as authoritative.
		meta.SampledOps = nil
	}
	return meta
}

// Meta assembles trace metadata for the completed run; the caller fills
// log-size and sampler fields it cannot know.
func (m *Machine) Meta(res *Result) trace.Meta {
	meta := trace.Meta{
		Module:      m.mod.Name,
		Seed:        m.opts.Seed,
		Threads:     res.Threads,
		Instrs:      res.Instrs,
		MemOps:      res.MemOps,
		StackMemOps: res.StackMemOps,
		SyncOps:     res.SyncOps,
		Cycles:      res.Cycles,
		BaseCycles:  res.BaseCycles,
		WallNanos:   res.Wall.Nanoseconds(),
	}
	if rt := m.opts.Runtime; rt != nil {
		meta.Samplers = rt.SamplerNames()
		meta.SampledOps = res.RuntimeStats.SampledOps
		meta.Primary = rt.PrimaryName()
	}
	return meta
}
