package shadow

import (
	"unsafe"

	"literace/internal/lir"
)

// rec is one stored access epoch plus the scalar attribution a race
// report needs. The clk is the accessing thread's own clock component at
// access time — comparing it against the current thread's vector clock
// decides happens-before in O(1). Evidence payloads live out of line
// (table.evs / mrec.ev) so rec stays 32 bytes and a cell's write+read
// pair packs into a single cache line.
type rec struct {
	clk uint64
	seq uint64
	pc  lir.PC
	tid int32
}

// mrec is one entry of a promoted read-share list: a rec plus its
// evidence payload. The list is rare (promotions, not reads, create it),
// so carrying the interface inline costs nothing on the fast path.
type mrec struct {
	rec
	ev any
}

// evPair holds the out-of-line evidence payloads for one address's
// inline write/read epochs. Allocated only when the caller actually
// attaches evidence (forensic runs); plain detection never touches it.
type evPair struct {
	w any
	r any
}

const (
	cellUsed  uint8 = 1 << iota // slot holds a live address
	cellWrite                   // a write epoch is stored
	cellRead                    // a single inline read epoch is stored
	cellMulti                   // reads promoted to the shared multi list
)

// cellData is the word-granular shadow state of one address: the last
// write epoch and the single inline read epoch (the unpromoted common
// case). Exactly 64 bytes, so the hot loop touches one data cache line
// per access; the promoted read-share list lives in table.multi.
type cellData struct {
	w rec
	r rec
}

// The single-line layout is the point of the struct-of-arrays split;
// fail the build if a field change silently spills cells over 64 bytes.
var (
	_ [64 - unsafe.Sizeof(cellData{})]byte
	_ [unsafe.Sizeof(cellData{}) - 64]byte
)

// table is an open-addressed, linear-probed shadow-memory table keyed
// by exact word address, laid out struct-of-arrays: keys and flags are
// dense (8 addresses / 64 state bytes per cache line, so probing stays
// cheap), and the 64-byte epoch payloads sit in a parallel data array —
// no per-address heap allocation, no pointer chase on the hot path.
// Cells are never removed: a detection pass keeps every address's
// history until it ends.
type table struct {
	keys  []uint64
	flags []uint8
	data  []cellData

	// multi holds promoted read-share lists, one epoch per thread that
	// read since the last write, in first-read order. evs holds
	// out-of-line evidence for the inline epochs. Both are keyed by
	// address, so growth never touches them.
	multi map[uint64][]mrec
	evs   map[uint64]*evPair

	mask uint64
	live int
}

const minTableCap = 64

func newTable() table {
	return table{
		keys:  make([]uint64, minTableCap),
		flags: make([]uint8, minTableCap),
		data:  make([]cellData, minTableCap),
		mask:  minTableCap - 1,
	}
}

func (t *table) slot(addr uint64) uint64 {
	h := addr * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & t.mask
}

// find returns addr's slot if it sits at its home position — the
// overwhelmingly common case under fibonacci hashing — and -1 on a
// miss or displacement. Small enough to inline into the engine's
// per-access fast paths; callers fall back to cell() on -1.
func (t *table) find(addr uint64) int {
	h := addr * 0x9e3779b97f4a7c15
	h ^= h >> 29
	i := h & t.mask
	if t.flags[i] != 0 && t.keys[i] == addr {
		return int(i)
	}
	return -1
}

// cell returns the slot of the shadow cell for addr, claiming a fresh
// one when the address is new.
func (t *table) cell(addr uint64) int {
	idx := t.slot(addr)
	for {
		if t.flags[idx] == 0 {
			// Grow at half load. Displacement is what knocks accesses
			// off find()'s home-slot fast path, but a slot costs 73
			// bytes (key, flags and the 64-byte cell), and growing at
			// quarter load doubled the table's allocations without
			// making detection faster.
			if t.live+1 > len(t.keys)/2 {
				t.grow()
				return t.cell(addr)
			}
			t.keys[idx] = addr
			t.flags[idx] = cellUsed
			t.live++
			return int(idx)
		}
		if t.keys[idx] == addr {
			return int(idx)
		}
		idx = (idx + 1) & t.mask
	}
}

func (t *table) grow() {
	oldKeys, oldFlags, oldData := t.keys, t.flags, t.data
	capacity := uint64(len(oldKeys)) * 2
	t.keys = make([]uint64, capacity)
	t.flags = make([]uint8, capacity)
	t.data = make([]cellData, capacity)
	t.mask = capacity - 1
	t.live = 0
	for i := range oldKeys {
		if oldFlags[i] == 0 {
			continue
		}
		idx := t.slot(oldKeys[i])
		for t.flags[idx] != 0 {
			idx = (idx + 1) & t.mask
		}
		t.keys[idx] = oldKeys[i]
		t.flags[idx] = oldFlags[i]
		t.data[idx] = oldData[i]
		t.live++
	}
}

// rs returns addr's promoted read-share list (nil if none).
func (t *table) rs(addr uint64) []mrec {
	if t.multi == nil {
		return nil
	}
	return t.multi[addr]
}

func (t *table) setRS(addr uint64, rs []mrec) {
	if t.multi == nil {
		t.multi = make(map[uint64][]mrec, 8)
	}
	t.multi[addr] = rs
}

func (t *table) dropRS(addr uint64) {
	if t.multi != nil {
		delete(t.multi, addr)
	}
}

// ev returns the out-of-line evidence pair for addr, allocating it when
// create is set. Only forensic runs (non-nil evidence payloads) ever
// reach here.
func (t *table) ev(addr uint64, create bool) *evPair {
	if t.evs == nil {
		if !create {
			return nil
		}
		t.evs = make(map[uint64]*evPair, 8)
	}
	p := t.evs[addr]
	if p == nil && create {
		p = &evPair{}
		t.evs[addr] = p
	}
	return p
}
