// Package lockset implements an Eraser-style lockset data-race detector
// (Savage et al., TOCS 1997) over LiteRace event logs. The paper uses
// happens-before detection to avoid false positives but notes (§1, §4.4)
// that the sampling approach applies equally to lockset algorithms; this
// package is that baseline, used for comparison in the extended
// experiments.
//
// Unlike the happens-before detector, the lockset algorithm can *predict*
// races that did not manifest in the observed interleaving, at the cost of
// false positives for synchronization styles other than mutual exclusion
// (fork/join, wait/notify, atomics).
package lockset

import (
	"sort"

	"literace/internal/hb"
	"literace/internal/lir"
	"literace/internal/trace"
)

// State is the Eraser per-location state machine.
type State uint8

const (
	// Virgin: never accessed.
	Virgin State = iota
	// Exclusive: accessed by exactly one thread so far.
	Exclusive
	// Shared: read by multiple threads, never written after sharing.
	Shared
	// SharedModified: written by multiple threads; empty lockset reports.
	SharedModified
)

func (s State) String() string {
	switch s {
	case Virgin:
		return "virgin"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case SharedModified:
		return "shared-modified"
	}
	return "unknown"
}

// Race is a lockset violation: a shared-modified location whose candidate
// lockset became empty at PC.
type Race struct {
	PC    lir.PC
	Addr  uint64
	TID   int32
	Write bool
}

// Options configures a detection pass.
type Options struct {
	// SamplerBit filters memory events as in package hb; AllEvents
	// disables filtering.
	SamplerBit int
}

// AllEvents disables sampler-mask filtering.
const AllEvents = -1

// Result accumulates lockset detection output.
type Result struct {
	Races   []Race // one per violating location (first violation only)
	MemOps  uint64
	SyncOps uint64
}

type lockSet map[uint64]struct{}

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

// intersect removes from s every lock not in t; reports whether s changed.
func (s lockSet) intersect(t lockSet) bool {
	changed := false
	for k := range s {
		if _, ok := t[k]; !ok {
			delete(s, k)
			changed = true
		}
	}
	return changed
}

type varState struct {
	state    State
	owner    int32
	locks    lockSet // candidate lockset C(v); nil means "all locks"
	reported bool
}

// Detector is a streaming Eraser detector; feed it replayed events.
type Detector struct {
	opts Options
	res  Result
	held map[int32]lockSet
	mem  map[uint64]*varState
}

// NewDetector returns a detector with the given options.
func NewDetector(opts Options) *Detector {
	return &Detector{
		opts: opts,
		held: make(map[int32]lockSet),
		mem:  make(map[uint64]*varState),
	}
}

func (d *Detector) heldBy(tid int32) lockSet {
	s := d.held[tid]
	if s == nil {
		s = make(lockSet)
		d.held[tid] = s
	}
	return s
}

// Process consumes one event.
func (d *Detector) Process(e trace.Event) {
	switch {
	case e.Kind == trace.KindAcquire && e.Op == trace.OpLock:
		d.res.SyncOps++
		d.heldBy(e.TID)[e.Addr] = struct{}{}
	case e.Kind == trace.KindRelease && e.Op == trace.OpUnlock:
		d.res.SyncOps++
		delete(d.heldBy(e.TID), e.Addr)
	case e.Kind.IsSync():
		d.res.SyncOps++ // other sync ops do not affect locksets
	case e.Kind.IsMem():
		if d.opts.SamplerBit >= 0 && e.Mask&(1<<uint(d.opts.SamplerBit)) == 0 {
			return
		}
		d.res.MemOps++
		d.access(e)
	}
}

func (d *Detector) access(e trace.Event) {
	st := d.mem[e.Addr]
	if st == nil {
		st = &varState{state: Virgin}
		d.mem[e.Addr] = st
	}
	isWrite := e.Kind == trace.KindWrite
	held := d.heldBy(e.TID)

	switch st.state {
	case Virgin:
		st.state = Exclusive
		st.owner = e.TID
		return
	case Exclusive:
		if e.TID == st.owner {
			return
		}
		// Second thread: initialize C(v) from the current thread's locks
		// (Eraser's refinement starts on the first sharing access).
		st.locks = held.clone()
		if isWrite {
			st.state = SharedModified
		} else {
			st.state = Shared
		}
	case Shared:
		st.locks.intersect(held)
		if isWrite {
			st.state = SharedModified
		}
	case SharedModified:
		st.locks.intersect(held)
	}

	if st.state == SharedModified && len(st.locks) == 0 && !st.reported {
		st.reported = true
		d.res.Races = append(d.res.Races, Race{PC: e.PC, Addr: e.Addr, TID: e.TID, Write: isWrite})
	}
}

// Result returns the accumulated result with races sorted by address.
func (d *Detector) Result() *Result {
	sort.Slice(d.res.Races, func(i, j int) bool { return d.res.Races[i].Addr < d.res.Races[j].Addr })
	return &d.res
}

// Detect replays log (in the same timestamp order the happens-before
// detector uses, so lock ownership is tracked consistently) and runs the
// Eraser algorithm over it.
func Detect(log *trace.Log, opts Options) (*Result, error) {
	d := NewDetector(opts)
	err := hb.Replay(log, func(e trace.Event) error {
		d.Process(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d.Result(), nil
}
