package shadow

import (
	"literace/internal/lir"
	"literace/internal/obs"
)

// Engine is the epoch fast-path detector core for one stream of
// accesses delivered in analysis order (a batch pass, or one streaming
// shard). It is not safe for concurrent use; shards each own an Engine
// and share the Depot.
type Engine struct {
	tab   table
	depot *Depot
	opts  Options

	accesses uint64
	fast     uint64
	prom     uint64

	// keepEv is set the first time a caller attaches a non-nil evidence
	// payload to an inline epoch. Until then (all plain detection runs)
	// the out-of-line evidence map is never touched. evIn stashes the
	// payload WriteEv/ReadEv carry so the plain Write/Read entry points
	// stay under the register-argument budget — an interface parameter
	// would push the hot calls onto the stack.
	keepEv bool
	evIn   any

	// cFast and cProm mirror fast and prom into Options.Obs. Flush adds
	// what accrued since the last flush (flushedFast, flushedProm), so
	// the shared counters take one atomic add per flush, not per access.
	cFast       *obs.Counter // epoch.fastpath_hits; nil-safe
	cProm       *obs.Counter // epoch.promotions; nil-safe
	flushedFast uint64
	flushedProm uint64

	// Pairs already interned by this engine: dynamic races repeat a
	// handful of static pairs thousands of times, so a local set
	// short-cuts the depot's lock + canonical encoding on every report
	// after a pair's first. memo caches the last pair in front of the
	// set — dynamic races also cluster back-to-back on one static pair.
	seen   pairSet
	memo   pairKey
	memoOK bool

	// scr is the report-shaped view of the access under analysis; a
	// field rather than a local so handing &scr to the OnRace callback
	// (an indirect call the escape analysis must assume keeps it) does
	// not allocate per race.
	scr Access

	// rsPool recycles read-share lists: a write to a promoted cell
	// retires its list, and the next promotion reuses it instead of
	// allocating. Promote/demote cycles on hot cells are common enough
	// in read-heavy traces to show up as GC pressure otherwise.
	rsPool [][]mrec
}

type pairKey struct{ a, b Frame }

// pairSet is a tiny insert-only open-addressed set of race pairs. A
// built-in map costs ~30ns per membership test on this struct key (the
// generic hasher); with a few dozen distinct pairs per trace and tens
// of thousands of dynamic races, an inline fibonacci-hashed probe is
// worth having.
type pairSet struct {
	keys []pairKey
	used []bool
	n    int
}

func pairHash(k pairKey) uint64 {
	x := uint64(uint32(k.a.PC.Func))<<32 | uint64(uint32(k.a.PC.Index))
	y := uint64(uint32(k.b.PC.Func))<<32 | uint64(uint32(k.b.PC.Index))
	h := x*0x9e3779b97f4a7c15 ^ y*0xc2b2ae3d27d4eb4f
	if k.a.Write {
		h ^= 0x5555555555555555
	}
	if k.b.Write {
		h ^= 0xaaaaaaaaaaaaaaaa
	}
	h ^= h >> 29
	return h
}

// insert adds k if absent and reports whether it was already present.
func (s *pairSet) insert(k pairKey) bool {
	if s.n*2 >= len(s.keys) {
		s.grow()
	}
	mask := uint64(len(s.keys) - 1)
	i := pairHash(k) & mask
	for s.used[i] {
		if s.keys[i] == k {
			return true
		}
		i = (i + 1) & mask
	}
	s.keys[i] = k
	s.used[i] = true
	s.n++
	return false
}

func (s *pairSet) grow() {
	old := s.keys
	oldUsed := s.used
	capacity := 64
	if len(old) > 0 {
		capacity = len(old) * 2
	}
	s.keys = make([]pairKey, capacity)
	s.used = make([]bool, capacity)
	mask := uint64(capacity - 1)
	for j, u := range oldUsed {
		if !u {
			continue
		}
		i := pairHash(old[j]) & mask
		for s.used[i] {
			i = (i + 1) & mask
		}
		s.keys[i] = old[j]
		s.used[i] = true
	}
}

// NewEngine returns an engine with the given options.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts, depot: opts.Depot}
	if e.depot == nil {
		e.depot = NewDepot()
	}
	if opts.Obs != nil {
		e.cFast = opts.Obs.Counter("epoch.fastpath_hits")
		e.cProm = opts.Obs.Counter("epoch.promotions")
	}
	e.tab = newTable()
	return e
}

// Flush adds the fast-path hits and promotions counted since the last
// flush to the epoch.fastpath_hits and epoch.promotions counters. The
// batch detector flushes at the end of a pass, a streaming shard after
// each batch.
func (e *Engine) Flush() {
	e.cFast.Add(e.fast - e.flushedFast)
	e.cProm.Add(e.prom - e.flushedProm)
	e.flushedFast, e.flushedProm = e.fast, e.prom
}

// Depot returns the stack depot race identities are interned into.
func (e *Engine) Depot() *Depot { return e.depot }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Accesses:     e.accesses,
		FastpathHits: e.fast,
		Promotions:   e.prom,
		Cells:        e.tab.live,
		DepotStacks:  e.depot.Len(),
	}
}

// Access analyzes one sampled memory access; it is the struct-shaped
// convenience form of Write/Read. Race reports come out in a fixed
// order: the stored write is checked first (for reads and writes alike), then — on a write — every
// recorded read in first-read order; the cell state is updated
// afterwards regardless of the outcome.
func (e *Engine) Access(a *Access) {
	if a.Write {
		e.WriteEv(a.Addr, a.Seq, a.TID, a.PC, a.VC, a.Ev)
	} else {
		e.ReadEv(a.Addr, a.Seq, a.TID, a.PC, a.VC, a.Ev)
	}
}

// WriteEv is Write with an evidence payload attached to the access.
// Callers running plain detection should call Write directly — the
// extra interface argument is the difference between a register call
// and a stack spill per access.
func (e *Engine) WriteEv(addr, seq uint64, tid int32, pc lir.PC, vc []uint64, ev any) {
	if ev != nil {
		e.keepEv = true
	}
	e.evIn = ev
	e.Write(addr, seq, tid, pc, vc)
	e.evIn = nil
}

// ReadEv is Read with an evidence payload attached to the access.
func (e *Engine) ReadEv(addr, seq uint64, tid int32, pc lir.PC, vc []uint64, ev any) {
	if ev != nil {
		e.keepEv = true
	}
	e.evIn = ev
	e.Read(addr, seq, tid, pc, vc)
	e.evIn = nil
}

// Write analyzes one sampled write. The scalar signature keeps the
// per-access hop from the detector in registers; the fast path — a
// fresh cell, a repeat write, or a write over this thread's own read —
// runs with zero cross-thread comparisons and one data cache line.
func (e *Engine) Write(addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	e.accesses++
	t := &e.tab
	i := t.find(addr)
	if i < 0 {
		i = t.cell(addr)
	}
	f := t.flags[i]
	d := &t.data[i]
	if f&cellMulti == 0 &&
		(f&cellWrite == 0 || d.w.tid == tid) &&
		(f&cellRead == 0 || d.r.tid == tid) {
		d.w.clk = clockAt(vc, tid)
		d.w.seq = seq
		d.w.pc = pc
		d.w.tid = tid
		if f&cellRead != 0 {
			d.r = rec{}
		}
		t.flags[i] = cellUsed | cellWrite
		if e.keepEv {
			e.setWEv(addr, e.evIn)
		}
		e.fast++
		return
	}
	e.writeSlow(i, addr, seq, tid, pc, vc)
}

// Read analyzes one sampled read. Fast cases — no conflicting write
// recorded, and this thread is the first or only reader — update the
// inline read epoch in place; everything else (cross-thread write
// check, promotion, read-share scan) takes the slow path.
func (e *Engine) Read(addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	e.accesses++
	t := &e.tab
	i := t.find(addr)
	if i < 0 {
		i = t.cell(addr)
	}
	f := t.flags[i]
	d := &t.data[i]
	if f&cellMulti == 0 && (f&cellWrite == 0 || d.w.tid == tid) {
		if f&cellRead == 0 {
			d.r = rec{clk: clockAt(vc, tid), seq: seq, pc: pc, tid: tid}
			t.flags[i] = f | cellRead
			if e.keepEv {
				e.setREv(addr, e.evIn)
			}
			e.fast++
			return
		}
		if d.r.tid == tid {
			d.r = rec{clk: clockAt(vc, tid), seq: seq, pc: pc, tid: tid}
			if e.keepEv {
				e.setREv(addr, e.evIn)
			}
			e.fast++
			return
		}
	}
	e.readSlow(i, addr, seq, tid, pc, vc)
}

func (e *Engine) writeSlow(i int, addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	t := &e.tab
	f := t.flags[i]
	d := &t.data[i]
	clk := clockAt(vc, tid)
	// The report-shaped view of this access is only materialized if a
	// race actually fires; most slow-path writes are merely unordered
	// checks that come back clean.
	made := false
	cur := func() *Access {
		if !made {
			e.scr = Access{Addr: addr, Seq: seq, TID: tid, Write: true, PC: pc, VC: vc, Ev: e.evIn}
			made = true
		}
		return &e.scr
	}
	var wEv, rEv any
	if e.keepEv {
		wEv, rEv = e.getEv(addr)
	}

	sub := 0
	fast := true
	if f&cellWrite != 0 && d.w.tid != tid {
		fast = false
		if d.w.clk > clockAt(vc, d.w.tid) {
			e.report(&d.w, wEv, true, cur(), sub)
			sub++
		} else if e.opts.OnOrdered != nil {
			e.opts.OnOrdered(d.w.pc, pc, clockAt(vc, d.w.tid)-d.w.clk)
		}
	}

	if f&cellMulti != 0 {
		rs := t.rs(addr)
		for k := range rs {
			r := &rs[k]
			if r.tid == tid {
				continue
			}
			fast = false
			if r.clk > clockAt(vc, r.tid) {
				e.report(&r.rec, r.ev, false, cur(), sub)
				sub++
			} else if e.opts.OnOrdered != nil {
				e.opts.OnOrdered(r.pc, pc, clockAt(vc, r.tid)-r.clk)
			}
		}
	} else if f&cellRead != 0 && d.r.tid != tid {
		fast = false
		if d.r.clk > clockAt(vc, d.r.tid) {
			e.report(&d.r, rEv, false, cur(), sub)
			sub++
		} else if e.opts.OnOrdered != nil {
			e.opts.OnOrdered(d.r.pc, pc, clockAt(vc, d.r.tid)-d.r.clk)
		}
	}
	if fast {
		e.fast++
	}

	// The write supersedes all recorded reads, even after races.
	d.w = rec{clk: clk, seq: seq, pc: pc, tid: tid}
	d.r = rec{}
	if f&cellMulti != 0 {
		if rs := t.rs(addr); cap(rs) > 0 {
			for k := range rs {
				rs[k].ev = nil // release evidence payloads before reuse
			}
			e.rsPool = append(e.rsPool, rs[:0])
		}
		t.dropRS(addr)
	}
	t.flags[i] = cellUsed | cellWrite
	if e.keepEv {
		e.setWEv(addr, e.evIn)
	}
}

func (e *Engine) readSlow(i int, addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	t := &e.tab
	f := t.flags[i]
	d := &t.data[i]

	fast := true
	if f&cellWrite != 0 && d.w.tid != tid {
		fast = false
		if d.w.clk > clockAt(vc, d.w.tid) {
			var wEv any
			if e.keepEv {
				wEv, _ = e.getEv(addr)
			}
			e.scr = Access{Addr: addr, Seq: seq, TID: tid, PC: pc, VC: vc, Ev: e.evIn}
			e.report(&d.w, wEv, true, &e.scr, 0)
		} else if e.opts.OnOrdered != nil {
			e.opts.OnOrdered(d.w.pc, pc, clockAt(vc, d.w.tid)-d.w.clk)
		}
	}

	now := rec{clk: clockAt(vc, tid), seq: seq, pc: pc, tid: tid}
	switch {
	case f&(cellRead|cellMulti) == 0:
		// First read since the last write: inline, no allocation.
		d.r = now
		t.flags[i] = f | cellRead
		if e.keepEv {
			e.setREv(addr, e.evIn)
		}
	case f&cellMulti == 0:
		if d.r.tid == tid {
			// Same-epoch read: the newer read dominates in place.
			d.r = now
			if e.keepEv {
				e.setREv(addr, e.evIn)
			}
		} else {
			// A second thread reads concurrently: promote the inline
			// epoch to the read-share list, preserving first-read order.
			// Evidence moves out of the inline slot into the list entry.
			fast = false
			var rEv any
			if e.keepEv {
				_, rEv = e.getEv(addr)
				e.setREv(addr, nil)
			}
			rs := e.newRS()
			t.setRS(addr, append(rs,
				mrec{rec: d.r, ev: rEv}, mrec{rec: now, ev: e.evIn}))
			d.r = rec{}
			t.flags[i] = f&^cellRead | cellMulti
			e.prom++
		}
	default:
		rs := t.rs(addr)
		for k := range rs {
			if rs[k].tid == tid {
				rs[k] = mrec{rec: now, ev: e.evIn}
				if fast {
					e.fast++
				}
				return
			}
		}
		fast = false
		t.setRS(addr, append(rs, mrec{rec: now, ev: e.evIn}))
	}
	if fast {
		e.fast++
	}
}

// newRS hands out an empty read-share list, reusing a retired one when
// the pool has any.
func (e *Engine) newRS() []mrec {
	if n := len(e.rsPool); n > 0 {
		rs := e.rsPool[n-1]
		e.rsPool = e.rsPool[:n-1]
		return rs
	}
	return make([]mrec, 0, 4)
}

func (e *Engine) setWEv(addr uint64, ev any) {
	p := e.tab.ev(addr, ev != nil)
	if p != nil {
		p.w = ev
		p.r = nil // the write clears the inline read
	}
}

func (e *Engine) setREv(addr uint64, ev any) {
	p := e.tab.ev(addr, ev != nil)
	if p != nil {
		p.r = ev
	}
}

func (e *Engine) getEv(addr uint64) (w, r any) {
	if p := e.tab.ev(addr, false); p != nil {
		return p.w, p.r
	}
	return nil, nil
}

// report interns the racing pair's identity into the depot and hands
// the race to the caller with the stored attribution.
func (e *Engine) report(prev *rec, prevEv any, prevWrite bool, cur *Access, sub int) {
	k := pairKey{Frame{PC: prev.pc, Write: prevWrite}, Frame{PC: cur.PC, Write: cur.Write}}
	// Interning is idempotent, so skipping pairs this engine already
	// interned changes nothing but the depot's hit counter.
	if !e.memoOK || k != e.memo {
		if !e.seen.insert(k) {
			e.depot.InternPair(k.a, k.b)
		}
		e.memo, e.memoOK = k, true
	}
	if e.opts.OnRace != nil {
		e.opts.OnRace(Prev{Seq: prev.seq, TID: prev.tid, Write: prevWrite, PC: prev.pc, Ev: prevEv}, cur, sub)
	}
}
