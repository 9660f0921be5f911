package interp

import (
	"fmt"

	"literace/internal/lir"
	"literace/internal/trace"
)

// instrCat buckets opcodes for the per-category virtual-cycle telemetry.
type instrCat uint8

const (
	catALU             instrCat = iota // arithmetic, logic, moves, comparisons
	catControl                         // jumps, branches, calls, returns
	catMem                             // loads, stores, allocation
	catSync                            // locks, events, fork/join, atomics
	catInstrumentation                 // MLog, Dispatch, ReCheck
	catMisc                            // tid, rand, print, yield, nop

	numInstrCats
)

func (c instrCat) String() string {
	switch c {
	case catALU:
		return "alu"
	case catControl:
		return "control"
	case catMem:
		return "mem"
	case catSync:
		return "sync"
	case catInstrumentation:
		return "instrumentation"
	}
	return "misc"
}

func opCategory(op lir.Op) instrCat {
	switch op {
	case lir.Jmp, lir.Br, lir.Call, lir.Ret, lir.Exit:
		return catControl
	case lir.Load, lir.Store, lir.Glob, lir.Alloc, lir.Free, lir.SAlloc:
		return catMem
	case lir.Lock, lir.Unlock, lir.Wait, lir.Notify, lir.Reset, lir.Fork,
		lir.Join, lir.Cas, lir.Xadd, lir.Xchg:
		return catSync
	case lir.MLog, lir.Dispatch, lir.ReCheck:
		return catInstrumentation
	case lir.Nop, lir.Tid, lir.Rand, lir.Print, lir.Yield:
		return catMisc
	}
	return catALU
}

func (m *Machine) fault(th *thread, format string, args ...any) error {
	fr := th.top()
	return &Fault{TID: th.tid, Func: fr.fn.Name, PC: fr.pc, Msg: fmt.Sprintf(format, args...)}
}

// origPC returns the original-module PC for the instruction at index i of
// the executing frame, resolving clone mappings.
func origPC(fr *frame, i int32) lir.PC {
	return fr.fn.OrigPC(fr.fnIdx, i)
}

// logSync emits a sync event when instrumented; always counts the op.
func (m *Machine) logSync(th *thread, kind trace.Kind, op trace.SyncOp, syncVar uint64, pc lir.PC) error {
	if th.ts == nil {
		return nil
	}
	return th.ts.LogSync(kind, op, syncVar, pc)
}

// runSlice executes up to quantum instructions of th, returning early when
// the thread blocks, finishes or yields. Frame, code, registers and pc stay
// in locals while straight-line ops run inline; any other op spills pc, goes
// through step and reloads the locals from th.top(). Instructions are
// counted one by one, so faults and the budget error stay exact.
func (m *Machine) runSlice(th *thread, quantum int) error {
	fr := th.top()
	code, r, pc := fr.fn.Code, fr.regs, fr.pc
	for ; quantum > 0; quantum-- {
		ins := &code[pc]
		m.res.Instrs++
		m.res.BaseCycles++ // taken back below for instrumentation ops
		if m.obsCats {
			m.catCycles[opCategory(ins.Op)]++
		}
		switch ins.Op {
		case lir.Nop:
		case lir.MovI:
			r[ins.A] = uint64(ins.Imm)
		case lir.Mov:
			r[ins.A] = r[ins.B]
		case lir.Add:
			r[ins.A] = r[ins.B] + r[ins.C]
		case lir.Sub:
			r[ins.A] = r[ins.B] - r[ins.C]
		case lir.Mul:
			r[ins.A] = r[ins.B] * r[ins.C]
		case lir.Div:
			if r[ins.C] == 0 {
				fr.pc = pc
				return m.fault(th, "division by zero")
			}
			r[ins.A] = uint64(int64(r[ins.B]) / int64(r[ins.C]))
		case lir.Mod:
			if r[ins.C] == 0 {
				fr.pc = pc
				return m.fault(th, "modulo by zero")
			}
			r[ins.A] = uint64(int64(r[ins.B]) % int64(r[ins.C]))
		case lir.And:
			r[ins.A] = r[ins.B] & r[ins.C]
		case lir.Or:
			r[ins.A] = r[ins.B] | r[ins.C]
		case lir.Xor:
			r[ins.A] = r[ins.B] ^ r[ins.C]
		case lir.Shl:
			r[ins.A] = r[ins.B] << (r[ins.C] & 63)
		case lir.Shr:
			r[ins.A] = r[ins.B] >> (r[ins.C] & 63)
		case lir.AddI:
			r[ins.A] = r[ins.B] + uint64(ins.Imm)
		case lir.Slt:
			r[ins.A] = b2u(int64(r[ins.B]) < int64(r[ins.C]))
		case lir.Sle:
			r[ins.A] = b2u(int64(r[ins.B]) <= int64(r[ins.C]))
		case lir.Seq:
			r[ins.A] = b2u(r[ins.B] == r[ins.C])
		case lir.Sne:
			r[ins.A] = b2u(r[ins.B] != r[ins.C])
		case lir.Not:
			r[ins.A] = b2u(r[ins.B] == 0)
		case lir.Neg:
			r[ins.A] = uint64(-int64(r[ins.B]))
		case lir.Glob:
			r[ins.A] = m.globalAddrs[ins.B]

		// Jumps stop one short of the target; the pc++ below lands on it.
		case lir.Jmp:
			pc = ins.A - 1
		case lir.Br:
			if r[ins.A] != 0 {
				pc = ins.B - 1
			} else {
				pc = ins.C - 1
			}

		case lir.Load:
			addr := r[ins.B] + uint64(ins.Imm)
			v, ok := m.mem.load(addr)
			if !ok {
				fr.pc = pc
				return m.fault(th, "load from unmapped address %#x", addr)
			}
			r[ins.A] = v
			m.countMem(th, fr, addr)
		case lir.Store:
			addr := r[ins.A] + uint64(ins.Imm)
			if !m.mem.store(addr, r[ins.B]) {
				fr.pc = pc
				return m.fault(th, "store to unmapped address %#x", addr)
			}
			m.countMem(th, fr, addr)

		default:
			if opCategory(ins.Op) == catInstrumentation {
				m.res.BaseCycles-- // instrumentation costs no application cycle
			}
			fr.pc = pc
			if err := m.step(th, fr, ins); err != nil {
				return err
			}
			if m.res.Instrs > m.opts.MaxInstrs {
				return m.budgetError()
			}
			if th.state != tRunnable || m.yieldSlice {
				return nil
			}
			fr = th.top()
			code, r, pc = fr.fn.Code, fr.regs, fr.pc
			continue
		}
		pc++
		if m.res.Instrs > m.opts.MaxInstrs {
			fr.pc = pc
			return m.budgetError()
		}
	}
	fr.pc = pc
	return nil
}

func (m *Machine) budgetError() error {
	return fmt.Errorf("interp: instruction budget %d exceeded", m.opts.MaxInstrs)
}

// step executes one instruction of th that runSlice does not run inline;
// fr is th's top frame and ins its current instruction, already counted.
// Blocking instructions leave the pc unchanged and are completed (pc
// advanced, effects applied) by the waking thread, so they are counted
// exactly once, at issue.
func (m *Machine) step(th *thread, fr *frame, ins *lir.Instr) error {
	r := fr.regs

	switch ins.Op {
	case lir.Call:
		fr.pc++ // return address
		nf := th.pushFrame(m.mod.Funcs[ins.B], ins.B, ins.A)
		caller := th.frames[len(th.frames)-2].regs
		for i, a := range ins.Args {
			nf.regs[i] = caller[a]
		}
		return nil

	case lir.Ret:
		var val uint64
		if ins.A >= 0 {
			val = r[ins.A]
		}
		retReg := fr.retReg
		th.popFrame()
		if len(th.frames) == 0 {
			return m.finishThread(th)
		}
		if retReg >= 0 {
			th.top().regs[retReg] = val
		}
		return nil

	case lir.Exit:
		return m.finishThread(th)

	case lir.Alloc:
		size := r[ins.B]
		addr := m.alloc.alloc(size)
		r[ins.A] = addr
		m.res.SyncOps++
		if th.ts != nil {
			if err := th.ts.LogAllocRange(trace.OpAlloc, addr, max64(size, 1), origPC(fr, fr.pc)); err != nil {
				return m.fault(th, "log: %v", err)
			}
		}
	case lir.Free:
		addr := r[ins.A]
		size, err := m.alloc.release(addr)
		if err != nil {
			return m.fault(th, "%v", err)
		}
		m.res.SyncOps++
		if th.ts != nil {
			if err := th.ts.LogAllocRange(trace.OpFree, addr, size, origPC(fr, fr.pc)); err != nil {
				return m.fault(th, "log: %v", err)
			}
		}
	case lir.SAlloc:
		n := uint64(ins.Imm)
		if th.stackNext+n > th.stackEnd {
			return m.fault(th, "stack overflow: %d words requested", n)
		}
		r[ins.A] = th.stackNext
		th.stackNext += n

	case lir.Lock:
		return m.doLock(th, fr, ins)
	case lir.Unlock:
		return m.doUnlock(th, fr, ins)
	case lir.Wait:
		return m.doWait(th, fr, ins)
	case lir.Notify:
		return m.doNotify(th, fr, ins)
	case lir.Reset:
		ev := m.event(r[ins.A])
		ev.signaled = false

	case lir.Fork:
		if m.totalSpawns >= m.opts.MaxThreads {
			return m.fault(th, "thread limit %d exceeded", m.opts.MaxThreads)
		}
		m.res.SyncOps++
		child := m.spawn(ins.B, r[ins.C], true)
		r[ins.A] = uint64(uint32(child.tid))
		tv := trace.ThreadVar(child.tid)
		// Parent's release must precede the child's acquire in timestamp
		// order; both are drawn here, before the child ever runs.
		if err := m.logSync(th, trace.KindRelease, trace.OpFork, tv, origPC(fr, fr.pc)); err != nil {
			return m.fault(th, "log: %v", err)
		}
		if child.ts != nil {
			if err := child.ts.LogSync(trace.KindAcquire, trace.OpForkChild, tv, lir.PC{Func: ins.B, Index: 0}); err != nil {
				return m.fault(th, "log: %v", err)
			}
		}

	case lir.Join:
		return m.doJoin(th, fr, ins)

	case lir.Cas, lir.Xadd, lir.Xchg:
		return m.doAtomic(th, fr, ins)

	case lir.Tid:
		r[ins.A] = uint64(uint32(th.tid))
	case lir.Rand:
		bound := r[ins.B]
		if bound == 0 {
			r[ins.A] = 0
		} else {
			r[ins.A] = uint64(m.progRng.Int63n(int64(bound)))
		}
	case lir.Print:
		if !m.opts.DropPrints {
			m.res.Prints = append(m.res.Prints, int64(r[ins.A]))
		}
	case lir.Yield:
		m.yieldSlice = true

	case lir.MLog:
		if th.ts != nil {
			addr := r[ins.A] + uint64(ins.Imm)
			pc := fr.fn.OrigPC(fr.fnIdx, ins.C)
			var err error
			if ins.B != 0 {
				err = th.ts.LogWrite(addr, pc, fr.mask)
			} else {
				err = th.ts.LogRead(addr, pc, fr.mask)
			}
			if err != nil {
				return m.fault(th, "log: %v", err)
			}
		}

	case lir.Dispatch:
		// The frame currently runs the original function; replace it with
		// the clone the sampler selects. Registers (parameters) carry over.
		instrumented := false
		var mask uint32
		if th.ts != nil {
			instrumented, mask = th.ts.Dispatch(fr.fnIdx, ins.Imm != 0)
		}
		target := ins.B
		if instrumented {
			target = ins.A
		}
		fr.fn = m.mod.Funcs[target]
		fr.fnIdx = target
		fr.mask = mask
		fr.pc = 0
		return nil

	case lir.ReCheck:
		// Loop-granularity sampling (§7): re-evaluate the loop region's
		// sampler at the back edge; when it declines, continue in the
		// uninstrumented clone from the same program point.
		if th.ts != nil {
			instrumented, mask := th.ts.Dispatch(ins.C, false)
			if !instrumented {
				fr.fn = m.mod.Funcs[ins.A]
				fr.fnIdx = ins.A
				fr.mask = 0
				fr.pc = ins.B
				return nil
			}
			fr.mask = mask
		}

	default:
		return m.fault(th, "unimplemented opcode %s", ins.Op)
	}

	fr.pc++
	return nil
}

func (m *Machine) countMem(th *thread, fr *frame, addr uint64) {
	m.res.MemOps++
	if addr >= StackBase {
		m.res.StackMemOps++
	}
	if m.covMem && th.ts != nil {
		fn := fr.fnIdx
		if fr.fn.OrigIndex >= 0 {
			fn = fr.fn.OrigIndex
		}
		th.ts.CoverMemExec(fn)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func (m *Machine) mutex(addr uint64) *mutexState {
	mu := m.mutexes[addr]
	if mu == nil {
		mu = &mutexState{owner: -1}
		m.mutexes[addr] = mu
	}
	return mu
}

func (m *Machine) event(addr uint64) *eventState {
	ev := m.events[addr]
	if ev == nil {
		ev = &eventState{}
		m.events[addr] = ev
	}
	return ev
}

func (m *Machine) doLock(th *thread, fr *frame, ins *lir.Instr) error {
	addr := fr.regs[ins.A]
	mu := m.mutex(addr)
	m.res.SyncOps++
	switch {
	case mu.owner == th.tid:
		return m.fault(th, "recursive lock of %#x", addr)
	case mu.owner == -1:
		mu.owner = th.tid
		// Acquire: timestamp drawn after the lock is taken (§4.2).
		if err := m.logSync(th, trace.KindAcquire, trace.OpLock, addr, origPC(fr, fr.pc)); err != nil {
			return m.fault(th, "log: %v", err)
		}
		fr.pc++
	default:
		mu.waiters = append(mu.waiters, th.tid)
		m.block(th)
	}
	return nil
}

func (m *Machine) doUnlock(th *thread, fr *frame, ins *lir.Instr) error {
	addr := fr.regs[ins.A]
	mu := m.mutex(addr)
	m.res.SyncOps++
	if mu.owner != th.tid {
		return m.fault(th, "unlock of %#x not owned (owner %d)", addr, mu.owner)
	}
	// Release: timestamp drawn before the lock is surrendered (§4.2),
	// guaranteeing ts(unlock) < ts(next lock).
	if err := m.logSync(th, trace.KindRelease, trace.OpUnlock, addr, origPC(fr, fr.pc)); err != nil {
		return m.fault(th, "log: %v", err)
	}
	fr.pc++
	if len(mu.waiters) == 0 {
		mu.owner = -1
		return nil
	}
	// FIFO hand-off: the head waiter's pending Lock completes now.
	next := mu.waiters[0]
	mu.waiters = mu.waiters[1:]
	mu.owner = next
	w := m.threads[next]
	wf := w.top()
	if err := m.logSync(w, trace.KindAcquire, trace.OpLock, addr, origPC(wf, wf.pc)); err != nil {
		return m.fault(w, "log: %v", err)
	}
	wf.pc++
	m.wake(w)
	return nil
}

func (m *Machine) doWait(th *thread, fr *frame, ins *lir.Instr) error {
	addr := fr.regs[ins.A]
	ev := m.event(addr)
	m.res.SyncOps++
	if ev.signaled {
		if err := m.logSync(th, trace.KindAcquire, trace.OpWait, addr, origPC(fr, fr.pc)); err != nil {
			return m.fault(th, "log: %v", err)
		}
		fr.pc++
		return nil
	}
	ev.waiters = append(ev.waiters, th.tid)
	m.block(th)
	return nil
}

func (m *Machine) doNotify(th *thread, fr *frame, ins *lir.Instr) error {
	addr := fr.regs[ins.A]
	ev := m.event(addr)
	m.res.SyncOps++
	// Release first (§4.2: increment and log before the notify), so every
	// woken waiter's acquire gets a later timestamp.
	if err := m.logSync(th, trace.KindRelease, trace.OpNotify, addr, origPC(fr, fr.pc)); err != nil {
		return m.fault(th, "log: %v", err)
	}
	ev.signaled = true
	fr.pc++
	for _, tid := range ev.waiters {
		w := m.threads[tid]
		wf := w.top()
		if err := m.logSync(w, trace.KindAcquire, trace.OpWait, addr, origPC(wf, wf.pc)); err != nil {
			return m.fault(w, "log: %v", err)
		}
		wf.pc++
		m.wake(w)
	}
	ev.waiters = ev.waiters[:0]
	return nil
}

func (m *Machine) doJoin(th *thread, fr *frame, ins *lir.Instr) error {
	tid := int32(uint32(fr.regs[ins.A]))
	if tid == th.tid {
		return m.fault(th, "join on self")
	}
	if int(tid) >= len(m.threads) || tid < 0 {
		return m.fault(th, "join on unknown thread %d", tid)
	}
	m.res.SyncOps++
	target := m.threads[tid]
	if target.state == tDone {
		if err := m.logSync(th, trace.KindAcquire, trace.OpJoin, trace.ThreadVar(tid), origPC(fr, fr.pc)); err != nil {
			return m.fault(th, "log: %v", err)
		}
		fr.pc++
		return nil
	}
	m.joiners[tid] = append(m.joiners[tid], th.tid)
	m.block(th)
	return nil
}

func (m *Machine) doAtomic(th *thread, fr *frame, ins *lir.Instr) error {
	r := fr.regs
	addr := r[ins.B]
	old, ok := m.mem.load(addr)
	if !ok {
		return m.fault(th, "atomic on unmapped address %#x", addr)
	}
	var op trace.SyncOp
	switch ins.Op {
	case lir.Cas:
		op = trace.OpCas
		if old == r[ins.C] {
			m.mem.store(addr, r[ins.D])
		}
	case lir.Xadd:
		op = trace.OpXadd
		m.mem.store(addr, old+r[ins.C])
	case lir.Xchg:
		op = trace.OpXchg
		m.mem.store(addr, r[ins.C])
	}
	r[ins.A] = old
	m.res.SyncOps++
	// Table 1: atomic machine ops synchronize on the target address; the
	// timestamp is drawn atomically with the operation (instruction
	// atomicity gives us the critical section the paper had to add).
	if err := m.logSync(th, trace.KindAcqRel, op, addr, origPC(fr, fr.pc)); err != nil {
		return m.fault(th, "log: %v", err)
	}
	fr.pc++
	return nil
}

// finishThread ends th: logs the thread-end release and wakes joiners.
func (m *Machine) finishThread(th *thread) error {
	th.state = tDone
	m.alive--
	tv := trace.ThreadVar(th.tid)
	// The end-release must be timestamped before any joiner's acquire.
	if err := m.logSync(th, trace.KindRelease, trace.OpThreadEnd, tv, lir.PC{Func: -1, Index: -1}); err != nil {
		return m.fault(th, "log: %v", err)
	}
	for _, tid := range m.joiners[th.tid] {
		j := m.threads[tid]
		jf := j.top()
		if err := m.logSync(j, trace.KindAcquire, trace.OpJoin, tv, origPC(jf, jf.pc)); err != nil {
			return m.fault(j, "log: %v", err)
		}
		jf.pc++
		m.wake(j)
	}
	delete(m.joiners, th.tid)
	if th.ts != nil {
		th.ts.FlushStats()
	}
	return nil
}

func (m *Machine) block(th *thread) {
	th.state = tBlocked
}

func (m *Machine) wake(th *thread) {
	if th.state == tBlocked {
		th.state = tRunnable
		m.runq.push(th.tid)
	}
}
