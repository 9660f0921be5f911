package interp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"literace/internal/asm"
	"literace/internal/lir"
)

// TestNotifyWakesAllWaiters: three waiters block on one event; a single
// notify releases all of them.
func TestNotifyWakesAllWaiters(t *testing.T) {
	src := `
glob ev 1
glob done 1
glob lk 1
func waiter 1 8 {
    glob r1, ev
    wait r1
    glob r2, lk
    lock r2
    glob r3, done
    load r4, r3, 0
    addi r4, r4, 1
    store r3, 0, r4
    unlock r2
    ret r4
}
func main 0 8 {
    movi r0, 0
    fork r1, waiter, r0
    fork r2, waiter, r0
    fork r3, waiter, r0
    movi r4, 2000
spin:
    addi r4, r4, -1
    br r4, spin, go
go:
    glob r5, ev
    notify r5
    join r1
    join r2
    join r3
    glob r6, done
    load r7, r6, 0
    print r7
    exit
}
`
	for _, seed := range []int64{1, 2, 3} {
		res := run(t, src, Options{Seed: seed})
		if len(res.Prints) != 1 || res.Prints[0] != 3 {
			t.Errorf("seed %d: done = %v, want 3", seed, res.Prints)
		}
	}
}

// TestMultipleJoiners: two threads join the same worker; both proceed
// after it exits.
func TestMultipleJoiners(t *testing.T) {
	src := `
glob out 1
func slow 1 6 {
    movi r1, 3000
sp:
    addi r1, r1, -1
    br r1, sp, fin
fin:
    ret r0
}
func joiner 1 6 {
    join r0
    glob r1, out
    xadd r2, r1, r0
    ret r2
}
func main 0 8 {
    movi r0, 1
    fork r1, slow, r0
    mov r2, r1
    fork r3, joiner, r2
    fork r4, joiner, r2
    join r3
    join r4
    glob r5, out
    load r6, r5, 0
    print r6
    exit
}
`
	res := run(t, src, Options{Seed: 9})
	// Each joiner xadds tid-of-slow (1): out = 2.
	if len(res.Prints) != 1 || res.Prints[0] != 2 {
		t.Errorf("prints = %v, want [2]", res.Prints)
	}
}

// TestResultInvariantUnderQuantum: scheduling quantum changes the
// interleaving but never the result of a properly synchronized program.
func TestResultInvariantUnderQuantum(t *testing.T) {
	for _, quantum := range []int{1, 7, 64, 500} {
		res := run(t, counterSrc, Options{Seed: 3, Quantum: quantum})
		if len(res.Prints) != 1 || res.Prints[0] != 2000 {
			t.Errorf("quantum %d: %v", quantum, res.Prints)
		}
	}
}

// TestDifferentSeedsDifferentInterleavings: the instruction interleaving
// depends on the seed (the paper's three runs explore different
// schedules). We detect this via the total instruction count of a program
// with contention-dependent retry loops.
func TestDifferentSeedsDifferentInterleavings(t *testing.T) {
	// A CAS spinlock's retry count depends on the interleaving, so total
	// executed instructions vary by seed.
	src := `
glob spin 1
glob ctr 1
func worker 1 8 {
loop:
    glob r1, spin
    movi r2, 0
    movi r3, 1
acq:
    cas r4, r1, r2, r3
    br r4, acq, crit
crit:
    glob r5, ctr
    load r6, r5, 0
    addi r6, r6, 1
    store r5, 0, r6
    movi r4, 0
    xchg r4, r1, r4
    addi r0, r0, -1
    br r0, loop, done
done:
    ret r0
}
func main 0 6 {
    movi r0, 400
    fork r1, worker, r0
    fork r2, worker, r0
    call _, worker, r0
    join r1
    join r2
    exit
}
`
	counts := map[uint64]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		res := run(t, src, Options{Seed: seed})
		counts[res.Instrs] = true
	}
	if len(counts) < 2 {
		t.Errorf("all 6 seeds produced identical instruction counts %v; scheduler not seed-sensitive", counts)
	}
}

// TestStackIsolation: each thread's salloc space is disjoint.
func TestStackIsolation(t *testing.T) {
	src := `
glob results 8
func worker 1 8 {
    salloc r1, 8
    store r1, 0, r0
    movi r2, 4000
sp:
    addi r2, r2, -1
    br r2, sp, fin
fin:
    load r3, r1, 0
    glob r4, results
    add r4, r4, r0
    store r4, 0, r3
    ret r3
}
func main 0 8 {
    movi r0, 1
    fork r1, worker, r0
    movi r0, 2
    fork r2, worker, r0
    movi r0, 3
    call _, worker, r0
    join r1
    join r2
    glob r3, results
    load r4, r3, 1
    print r4
    load r4, r3, 2
    print r4
    load r4, r3, 3
    print r4
    exit
}
`
	res := run(t, src, Options{Seed: 4})
	want := []int64{1, 2, 3}
	if len(res.Prints) != 3 {
		t.Fatalf("prints = %v", res.Prints)
	}
	for i, w := range want {
		if res.Prints[i] != w {
			t.Errorf("results[%d] = %d, want %d (stack corruption?)", i+1, res.Prints[i], w)
		}
	}
}

// TestEventSignalPersistsUntilReset: a manual-reset event stays signaled
// so later waits pass immediately; after reset the next wait blocks until
// the next notify.
func TestEventSignalPersistsUntilReset(t *testing.T) {
	src := `
glob ev 1
func main 0 6 {
    glob r0, ev
    notify r0
    wait r0
    wait r0     ; still signaled
    reset r0
    fork r1, notifier, r1
    wait r0     ; must block until the notifier runs
    join r1
    movi r2, 77
    print r2
    exit
}
func notifier 1 4 {
    movi r1, 500
sp:
    addi r1, r1, -1
    br r1, sp, go
go:
    glob r2, ev
    notify r2
    ret r0
}
`
	res := run(t, src, Options{Seed: 2})
	if len(res.Prints) != 1 || res.Prints[0] != 77 {
		t.Errorf("prints = %v", res.Prints)
	}
}

// TestDropPrints: the option suppresses print collection.
func TestDropPrints(t *testing.T) {
	src := "func main 0 2 {\n movi r0, 5\n print r0\n exit\n}"
	m := asm.MustAssemble("t", src)
	mach, err := New(m, Options{DropPrints: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Prints) != 0 {
		t.Errorf("prints retained: %v", res.Prints)
	}
}

// TestFreeListReuse: freed allocations are recycled for same-size
// requests and always re-zeroed.
func TestFreeListReuse(t *testing.T) {
	src := `
func main 0 8 {
    movi r0, 32
    alloc r1, r0
    movi r2, 99
    store r1, 5, r2
    free r1
    alloc r3, r0
    seq r4, r1, r3     ; same address reused?
    print r4
    load r5, r3, 5     ; must be zeroed
    print r5
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 2 || res.Prints[0] != 1 || res.Prints[1] != 0 {
		t.Errorf("prints = %v, want [1 0]", res.Prints)
	}
}

// TestDeepRecursionWorks: register windows come from a per-thread register
// stack that grows on demand, so deep recursion just works. The sum
// 1..20000 needs every caller's registers intact across each growth, and
// r3, read before it is written, needs each window zeroed: the second call
// reuses the windows the first one left behind.
func TestDeepRecursionWorks(t *testing.T) {
	src := `
func down 1 4 {
    br r0, rec, base
base:
    ret r0
rec:
    add r3, r3, r0
    addi r1, r0, -1
    call r2, down, r1
    add r3, r3, r2
    ret r3
}
func main 0 4 {
    movi r0, 20000
    call r1, down, r0
    print r1
    call r1, down, r0
    print r1
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 2 || res.Prints[0] != 200010000 || res.Prints[1] != 200010000 {
		t.Errorf("prints = %v, want [200010000 200010000]", res.Prints)
	}
}

// TestStackRegion: thread stacks are mapped a page at a time on first
// touch, yet every stack of a spawned thread is valid and reads zero, and
// the first word past the highest spawned stack still faults.
func TestStackRegion(t *testing.T) {
	const words = 4 * lir.PageWords
	child := StackBase + words // thread 1's stack
	src := fmt.Sprintf(`
func child 1 4 {
    salloc r1, 4
    store r1, 0, r0
    ret r0
}
func main 0 6 {
    movi r0, 7
    fork r1, child, r0
    join r1
    movi r2, %d
    load r3, r2, 0
    print r3
    load r3, r2, %d
    print r3
    load r3, r2, %d
    exit
}
`, child, 3*lir.PageWords+5, words)
	mach, err := New(asm.MustAssemble("t", src), Options{StackWords: words})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if want := []int64{7, 0}; fmt.Sprint(res.Prints) != fmt.Sprint(want) {
		t.Errorf("prints = %v, want %v", res.Prints, want)
	}
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.Msg, "unmapped") || f.TID != 0 || f.PC != 8 {
		t.Errorf("load past the last stack: err = %v, want an unmapped fault at main:8", err)
	}
}
