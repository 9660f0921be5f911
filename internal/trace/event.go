// Package trace defines LiteRace's event log: the synchronization and
// sampled-memory-access records the instrumented program emits, a compact
// binary encoding with per-thread buffering (the paper writes logs to disk
// and analyzes them offline, §4.4), and the 128-way hashed timestamp
// counter scheme of §4.2.
package trace

import (
	"fmt"

	"literace/internal/lir"
)

// NumCounters is the number of logical timestamp counters. A single global
// counter would serialize every synchronization operation in the program;
// the paper instead uses "one of 128 counters uniquely determined by a
// hash of the SyncVar".
const NumCounters = 128

// CounterOf returns the timestamp counter used for a SyncVar.
func CounterOf(syncVar uint64) uint8 {
	// splitmix64 finalizer: cheap, well-mixed.
	x := syncVar
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint8(x & (NumCounters - 1))
}

// SyncVar namespaces. Lock/event SyncVars are plain memory addresses;
// thread lifecycle operations synchronize on the child thread id (Table 1)
// and allocation synchronizes on the page (§4.3). High bits keep the three
// namespaces disjoint.
const (
	threadVarBit = uint64(1) << 63
	pageVarBit   = uint64(1) << 62
)

// ThreadVar returns the SyncVar for thread lifecycle events of thread tid.
func ThreadVar(tid int32) uint64 { return threadVarBit | uint64(uint32(tid)) }

// PageVar returns the SyncVar for allocation events on a page.
func PageVar(page uint64) uint64 { return pageVarBit | page }

// Kind classifies an event by its happens-before role.
type Kind uint8

const (
	// KindRead and KindWrite are sampled data accesses.
	KindRead Kind = iota
	KindWrite
	// KindAcquire joins the SyncVar's clock into the thread (lock, wait
	// return, join return, thread start).
	KindAcquire
	// KindRelease publishes the thread's clock to the SyncVar (unlock,
	// notify, fork, thread end).
	KindRelease
	// KindAcqRel does both, in release-then-acquire order (atomic
	// read-modify-write ops, allocation/free page synchronization).
	KindAcqRel
	// KindSched is a scheduler marker (slice begin/end): it carries no
	// happens-before meaning and is ignored by the detectors, but gives
	// the timeline exporter real execution-time boundaries. Addr holds the
	// global slice index and TS the virtual instruction clock at the
	// boundary; Op distinguishes begin, voluntary end, and preemption.
	KindSched

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindAcquire:
		return "acquire"
	case KindRelease:
		return "release"
	case KindAcqRel:
		return "acqrel"
	case KindSched:
		return "sched"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsMem reports whether the event is a sampled memory access.
func (k Kind) IsMem() bool { return k == KindRead || k == KindWrite }

// IsSync reports whether the event participates in happens-before edges.
func (k Kind) IsSync() bool { return k == KindAcquire || k == KindRelease || k == KindAcqRel }

// IsSched reports whether the event is a scheduler marker.
func (k Kind) IsSched() bool { return k == KindSched }

// SyncOp records which source operation produced a sync event; it does not
// affect happens-before semantics but makes reports readable and lets the
// lockset detector recover lock ownership.
type SyncOp uint8

const (
	OpNone SyncOp = iota
	OpLock
	OpUnlock
	OpWait
	OpNotify
	OpFork
	OpForkChild // thread start, the child half of fork
	OpJoin
	OpThreadEnd
	OpCas
	OpXadd
	OpXchg
	OpAlloc
	OpFree
	// OpSliceBegin/OpSliceEnd/OpSlicePreempt are KindSched operations:
	// a scheduling slice started, ended voluntarily (block, yield, thread
	// exit), or was cut by quantum expiry.
	OpSliceBegin
	OpSliceEnd
	OpSlicePreempt

	numSyncOps
)

var syncOpNames = [...]string{
	OpNone: "none", OpLock: "lock", OpUnlock: "unlock", OpWait: "wait",
	OpNotify: "notify", OpFork: "fork", OpForkChild: "fork-child",
	OpJoin: "join", OpThreadEnd: "thread-end", OpCas: "cas",
	OpXadd: "xadd", OpXchg: "xchg", OpAlloc: "alloc", OpFree: "free",
	OpSliceBegin: "slice-begin", OpSliceEnd: "slice-end",
	OpSlicePreempt: "slice-preempt",
}

func (o SyncOp) String() string {
	if int(o) < len(syncOpNames) {
		return syncOpNames[o]
	}
	return fmt.Sprintf("syncop(%d)", uint8(o))
}

// Event is one log record. Memory events use Addr, PC, and Mask; sync
// events use Addr (the SyncVar), Counter, TS, Op, and PC.
//
// The byte-sized fields come first so they pack into the padding before
// TID: an Event is 40 bytes, and decode and merge move millions of them.
type Event struct {
	Kind    Kind
	Op      SyncOp
	Counter uint8 // timestamp counter id, sync events only
	TID     int32
	PC      lir.PC
	Addr    uint64
	TS      uint64 // timestamp within Counter (1-based), sync events only
	Mask    uint32 // sampler would-log bitmask, memory events only
}

func (e Event) String() string {
	if e.Kind.IsMem() {
		return fmt.Sprintf("t%d %s @%v addr=%#x mask=%#x", e.TID, e.Kind, e.PC, e.Addr, e.Mask)
	}
	if e.Kind.IsSched() {
		return fmt.Sprintf("t%d sched(%s) @%v slice=%d instrs=%d", e.TID, e.Op, e.PC, e.Addr, e.TS)
	}
	return fmt.Sprintf("t%d %s(%s) @%v var=%#x c%d ts=%d", e.TID, e.Kind, e.Op, e.PC, e.Addr, e.Counter, e.TS)
}
