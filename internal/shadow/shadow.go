// Package shadow implements the epoch fast-path detector core: a
// FastTrack-style representation of per-variable access history where
// the common case — an access that stays on the same thread, or is
// ordered after every recorded conflicting access — is decided in O(1)
// against scalar (thread, clock) epochs, and the full read-share state
// (one epoch per concurrently-reading thread) is materialized only when
// unordered reads from multiple threads force it.
//
// The core is deliberately engine-agnostic: it knows nothing about
// trace replay, vector-clock bookkeeping, or evidence capture. Callers
// (the batch detector in internal/hb and the streaming shard workers in
// internal/stream) drive the sync-clock side themselves and hand each
// sampled memory access to Engine.Access together with an immutable
// view of the accessing thread's vector clock; the engine answers with
// race callbacks that carry exactly the attribution the caller stored.
// The batch detector and every streaming shard therefore report
// byte-identical race sets; hb.ReferenceDetector, which keeps full
// vector clocks per access, is the differential oracle for this core.
//
// Backing storage is a word-granular open-addressed shadow-memory
// table: one inline cell per exact address, no per-address heap
// allocation. Racing access sites are interned into a stack depot
// (Depot) that deduplicates race identities into stable 16-hex IDs.
package shadow

import (
	"literace/internal/lir"
	"literace/internal/obs"
)

// Access is one sampled memory access handed to the engine. VC is the
// accessing thread's vector clock at access time; the engine only reads
// it (ordered lookups against stored epochs) and never retains it, so
// callers may pass their live clock (batch) or an immutable snapshot
// (streaming). Ev is an opaque evidence payload stored with the access
// history and handed back verbatim on the racing side of a report; nil
// when evidence capture is off.
type Access struct {
	Addr  uint64
	Seq   uint64 // per-thread analyzed-memory ordinal (1-based)
	TID   int32
	Write bool
	PC    lir.PC
	VC    []uint64
	Ev    any
}

// Prev describes the stored earlier access of a reported race.
type Prev struct {
	Seq   uint64
	TID   int32
	Write bool
	PC    lir.PC
	Ev    any
}

// Options configures an Engine.
type Options struct {
	// Depot, when non-nil, is the stack depot racing access pairs are
	// interned into; share one across shards to deduplicate identities
	// globally. A nil Depot gives the engine a private one.
	Depot *Depot

	// Obs, when non-nil, receives the engine counters epoch.fastpath_hits
	// and epoch.promotions at each Engine.Flush.
	Obs *obs.Registry

	// OnRace is invoked for every conflicting unordered pair, in a fixed
	// order: the write check first, then recorded reads in first-read
	// order. sub is the 0-based
	// index of the race among those the current access produced. cur is
	// only valid for the duration of the call; copy what you keep.
	OnRace func(prev Prev, cur *Access, sub int)

	// OnOrdered, when non-nil, is invoked for every cross-thread
	// conflicting pair that IS ordered, with the happens-before slack in
	// clock ticks — the near-miss feed. Leave nil to skip the calls.
	OnOrdered func(prevPC, curPC lir.PC, margin uint64)
}

// Stats is a snapshot of the engine's core counters.
type Stats struct {
	// Accesses counts every access the engine analyzed.
	Accesses uint64
	// FastpathHits counts accesses decided without any cross-thread
	// epoch comparison: same-owner or virgin state, the FastTrack O(1)
	// case.
	FastpathHits uint64
	// Promotions counts single-reader -> read-share transitions.
	Promotions uint64
	// Cells is the number of live shadow cells at snapshot time.
	Cells int
	// DepotStacks is the number of distinct race identities interned.
	DepotStacks int
}

// clockAt reads tid's component of a vector clock snapshot; components
// beyond the stored length are zero (same convention as hb.VC.At).
func clockAt(vc []uint64, tid int32) uint64 {
	if int(tid) < len(vc) {
		return vc[tid]
	}
	return 0
}
