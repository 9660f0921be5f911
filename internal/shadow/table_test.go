package shadow

import (
	"testing"
)

// auditTable checks structural invariants: live matches the used slots,
// no address appears twice, and every used slot is reachable by probing
// from its home slot (growth must never strand one).
func auditTable(t *testing.T, tab *table) {
	t.Helper()
	used := 0
	seen := make(map[uint64]bool)
	for i := range tab.flags {
		if tab.flags[i] == 0 {
			continue
		}
		used++
		addr := tab.keys[i]
		if seen[addr] {
			t.Fatalf("address %#x stored twice", addr)
		}
		seen[addr] = true
		// Probe from the home slot: we must hit this cell before any
		// empty slot.
		idx := tab.slot(addr)
		for {
			if tab.flags[idx] == 0 {
				t.Fatalf("address %#x stranded: probe chain hit an empty slot", addr)
			}
			if tab.keys[idx] == addr {
				break
			}
			idx = (idx + 1) & tab.mask
		}
	}
	if used != tab.live {
		t.Fatalf("live = %d but %d slots are used", tab.live, used)
	}
	// Side state may only exist for live addresses.
	for addr := range tab.multi {
		if !seen[addr] {
			t.Fatalf("read-share list leaked for dead address %#x", addr)
		}
	}
	for addr := range tab.evs {
		if !seen[addr] {
			t.Fatalf("evidence leaked for dead address %#x", addr)
		}
	}
}

func TestTableInsertLookupGrow(t *testing.T) {
	tab := newTable()
	const n = 10_000
	for i := uint64(1); i <= n; i++ {
		idx := tab.cell(i * 8)
		if tab.flags[idx] != cellUsed {
			t.Fatalf("fresh cell for %#x has flags %#x", i*8, tab.flags[idx])
		}
		tab.data[idx].w.seq = i // marker
		tab.flags[idx] |= cellWrite
	}
	if tab.live != n {
		t.Fatalf("live = %d, want %d", tab.live, n)
	}
	for i := uint64(1); i <= n; i++ {
		idx := tab.cell(i * 8)
		if tab.data[idx].w.seq != i {
			t.Fatalf("cell %#x lost its state across growth: seq = %d, want %d",
				i*8, tab.data[idx].w.seq, i)
		}
	}
	if tab.live != n {
		t.Fatalf("lookups created cells: live = %d, want %d", tab.live, n)
	}
	auditTable(t, &tab)
}

func TestTableFindHomeSlot(t *testing.T) {
	tab := newTable()
	if got := tab.find(0x1234); got != -1 {
		t.Fatalf("find on an empty table returned slot %d", got)
	}
	idx := tab.cell(0x1234)
	if got := tab.find(0x1234); got >= 0 && got != idx {
		t.Fatalf("find returned slot %d, cell claimed %d", got, idx)
	}
	// find is allowed to miss on displaced cells but must never claim a
	// slot whose key differs.
	for i := uint64(1); i <= 1000; i++ {
		tab.cell(i * 31)
	}
	for i := uint64(1); i <= 1000; i++ {
		addr := i * 31
		if got := tab.find(addr); got >= 0 && tab.keys[got] != addr {
			t.Fatalf("find(%#x) returned slot %d holding %#x", addr, got, tab.keys[got])
		}
	}
}
