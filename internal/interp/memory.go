package interp

import (
	"fmt"

	"literace/internal/lir"
)

// memory is a sparse, page-granular word-addressed address space.
// Accessing an unmapped page is a fault, which catches wild pointers in
// workload programs early. Thread stacks are mapped a page at a time on
// first touch: every page from StackBase up to the one holding
// stackEnd-1 is valid and reads zero until written.
type memory struct {
	pages    map[uint64]*[lir.PageWords]uint64
	stackEnd uint64 // end of the highest spawned thread's stack

	// One-entry translation cache: most accesses hit the same page
	// repeatedly.
	lastPage uint64
	lastPtr  *[lir.PageWords]uint64
}

func newMemory() *memory {
	return &memory{pages: make(map[uint64]*[lir.PageWords]uint64)}
}

func (m *memory) page(addr uint64) *[lir.PageWords]uint64 {
	p := lir.PageOf(addr)
	if m.lastPtr != nil && p == m.lastPage {
		return m.lastPtr
	}
	pg := m.pages[p]
	if pg == nil && addr >= StackBase && p <= lir.PageOf(m.stackEnd-1) {
		pg = new([lir.PageWords]uint64)
		m.pages[p] = pg
	}
	if pg != nil {
		m.lastPage, m.lastPtr = p, pg
	}
	return pg
}

// mapRange ensures every page overlapping [addr, addr+words) is mapped.
func (m *memory) mapRange(addr, words uint64) {
	if words == 0 {
		words = 1
	}
	for p := lir.PageOf(addr); p <= lir.PageOf(addr+words-1); p++ {
		if m.pages[p] == nil {
			m.pages[p] = new([lir.PageWords]uint64)
		}
	}
}

func (m *memory) load(addr uint64) (uint64, bool) {
	pg := m.page(addr)
	if pg == nil {
		return 0, false
	}
	return pg[addr%lir.PageWords], true
}

func (m *memory) store(addr, val uint64) bool {
	pg := m.page(addr)
	if pg == nil {
		return false
	}
	pg[addr%lir.PageWords] = val
	return true
}

// zeroRange clears [addr, addr+words); all pages must be mapped.
func (m *memory) zeroRange(addr, words uint64) {
	for i := uint64(0); i < words; i++ {
		m.store(addr+i, 0)
	}
}

// allocator is a first-fit word allocator over the heap region: a bump
// pointer plus exact-size free lists, with a live map for free() checking.
type allocator struct {
	mem  *memory
	next uint64
	free map[uint64][]uint64 // size -> addresses
	live map[uint64]uint64   // addr -> size
}

func newAllocator(mem *memory, base uint64) *allocator {
	return &allocator{
		mem:  mem,
		next: base,
		free: make(map[uint64][]uint64),
		live: make(map[uint64]uint64),
	}
}

// alloc returns a zeroed region of the given size in words.
func (a *allocator) alloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	var addr uint64
	if fl := a.free[size]; len(fl) > 0 {
		addr = fl[len(fl)-1]
		a.free[size] = fl[:len(fl)-1]
	} else {
		addr = a.next
		a.next += size
		a.mem.mapRange(addr, size)
	}
	a.live[addr] = size
	a.mem.zeroRange(addr, size)
	return addr
}

// release frees a live allocation, returning its size.
func (a *allocator) release(addr uint64) (uint64, error) {
	size, ok := a.live[addr]
	if !ok {
		return 0, fmt.Errorf("free of %#x which is not a live allocation", addr)
	}
	delete(a.live, addr)
	a.free[size] = append(a.free[size], addr)
	return size, nil
}
