package interp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"literace/internal/asm"
	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/lir"
	"literace/internal/sampler"
	"literace/internal/trace"
)

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	m := asm.MustAssemble("t", src)
	mach, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func runErr(t *testing.T, src string, opts Options) error {
	t.Helper()
	m := asm.MustAssemble("t", src)
	mach, err := New(m, opts)
	if err != nil {
		return err
	}
	_, err = mach.Run()
	if err == nil {
		t.Fatal("expected a fault")
	}
	return err
}

func TestArithmeticAndControl(t *testing.T) {
	// Iterative factorial of 10 = 3628800.
	src := `
func main 0 6 {
    movi r0, 10
    movi r1, 1
loop:
    br r0, body, done
body:
    mul r1, r1, r0
    addi r0, r0, -1
    jmp loop
done:
    print r1
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 1 || res.Prints[0] != 3628800 {
		t.Errorf("prints = %v", res.Prints)
	}
	if res.Instrs == 0 || res.BaseCycles != res.Instrs {
		t.Errorf("instrs=%d base=%d", res.Instrs, res.BaseCycles)
	}
}

func TestAluOps(t *testing.T) {
	src := `
func main 0 8 {
    movi r0, 7
    movi r1, 3
    sub r2, r0, r1
    print r2        ; 4
    div r2, r0, r1
    print r2        ; 2
    mod r2, r0, r1
    print r2        ; 1
    and r2, r0, r1
    print r2        ; 3
    or r2, r0, r1
    print r2        ; 7
    xor r2, r0, r1
    print r2        ; 4
    shl r2, r0, r1
    print r2        ; 56
    shr r2, r0, r1
    print r2        ; 0
    slt r2, r1, r0
    print r2        ; 1
    sle r2, r0, r0
    print r2        ; 1
    seq r2, r0, r1
    print r2        ; 0
    sne r2, r0, r1
    print r2        ; 1
    not r2, r2
    print r2        ; 0
    neg r2, r0
    print r2        ; -7
    movi r3, -8
    addi r3, r3, 3
    print r3        ; -5
    exit
}
`
	res := run(t, src, Options{})
	want := []int64{4, 2, 1, 3, 7, 4, 56, 0, 1, 1, 0, 1, 0, -7, -5}
	if len(res.Prints) != len(want) {
		t.Fatalf("prints = %v", res.Prints)
	}
	for i, w := range want {
		if res.Prints[i] != w {
			t.Errorf("print %d = %d, want %d", i, res.Prints[i], w)
		}
	}
}

func TestCallReturn(t *testing.T) {
	src := `
func add3 3 4 {
    add r3, r0, r1
    add r3, r3, r2
    ret r3
}
func main 0 6 {
    movi r0, 1
    movi r1, 2
    movi r2, 3
    call r4, add3, r0, r1, r2
    print r4
    call _, add3, r0, r1, r2
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 1 || res.Prints[0] != 6 {
		t.Errorf("prints = %v", res.Prints)
	}
}

func TestRecursion(t *testing.T) {
	src := `
func fib 1 6 {
    movi r1, 2
    slt r2, r0, r1
    br r2, base, rec
base:
    ret r0
rec:
    addi r1, r0, -1
    call r2, fib, r1
    addi r1, r0, -2
    call r3, fib, r1
    add r2, r2, r3
    ret r2
}
func main 0 4 {
    movi r0, 15
    call r1, fib, r0
    print r1
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 1 || res.Prints[0] != 610 {
		t.Errorf("fib(15) = %v, want 610", res.Prints)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	src := `
glob g 4 = 10 20 30
func main 0 4 {
    glob r0, g
    load r1, r0, 1
    print r1
    movi r2, 99
    store r0, 3, r2
    load r1, r0, 3
    print r1
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 2 || res.Prints[0] != 20 || res.Prints[1] != 99 {
		t.Errorf("prints = %v", res.Prints)
	}
	if res.MemOps != 3 || res.StackMemOps != 0 {
		t.Errorf("mem=%d stack=%d", res.MemOps, res.StackMemOps)
	}
}

func TestHeapAllocFree(t *testing.T) {
	src := `
func main 0 6 {
    movi r0, 100
    alloc r1, r0
    load r2, r1, 50     ; fresh memory reads zero
    print r2
    movi r2, 7
    store r1, 50, r2
    load r3, r1, 50
    print r3
    free r1
    alloc r4, r0        ; likely reuses; must be zeroed again
    load r5, r4, 50
    print r5
    exit
}
`
	res := run(t, src, Options{})
	want := []int64{0, 7, 0}
	for i, w := range want {
		if res.Prints[i] != w {
			t.Errorf("print %d = %d, want %d", i, res.Prints[i], w)
		}
	}
	if res.SyncOps != 3 { // alloc + free + alloc
		t.Errorf("sync ops = %d, want 3", res.SyncOps)
	}
}

func TestSAllocStackCounting(t *testing.T) {
	src := `
func main 0 4 {
    salloc r0, 16
    movi r1, 5
    store r0, 2, r1
    load r2, r0, 2
    print r2
    exit
}
`
	res := run(t, src, Options{})
	if res.Prints[0] != 5 {
		t.Errorf("prints = %v", res.Prints)
	}
	if res.StackMemOps != 2 || res.MemOps != 2 {
		t.Errorf("stack mem ops = %d/%d, want 2/2", res.StackMemOps, res.MemOps)
	}
}

// straightLineFault returns a program whose forked thread runs a long
// block of ALU ops and in-bounds memory ops with bad in the middle, at
// index 2+2*pre of func work, so a scheduling slice almost never starts on
// the faulting instruction.
func straightLineFault(bad string, pre int) string {
	var b strings.Builder
	b.WriteString("glob g 4\nfunc work 1 6 {\n glob r1, g\n movi r2, 0\n")
	for i := 0; i < pre; i++ {
		fmt.Fprintf(&b, " addi r3, r3, %d\n store r1, %d, r3\n", i, i%4)
	}
	fmt.Fprintf(&b, " %s\n", bad)
	for i := 0; i < 40; i++ {
		b.WriteString(" load r4, r1, 1\n add r3, r3, r4\n")
	}
	b.WriteString(" ret r3\n}\nfunc main 0 4 {\n fork r0, work, r1\n join r0\n exit\n}\n")
	return b.String()
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		tid                int32
		fn                 string
		pc                 int32
	}{
		{"div zero", "func main 0 4 {\n movi r0, 1\n movi r1, 0\n div r2, r0, r1\n exit\n}", "division by zero", 0, "main", 2},
		{"unmapped load", "func main 0 4 {\n movi r0, 0\n load r1, r0, 0\n exit\n}", "unmapped", 0, "main", 1},
		{"unmapped store", "func main 0 4 {\n movi r0, 5\n store r0, 0, r0\n exit\n}", "unmapped", 0, "main", 1},
		{"double free", "func main 0 4 {\n movi r0, 8\n alloc r1, r0\n free r1\n free r1\n exit\n}", "not a live allocation", 0, "main", 3},
		{"bad free", "func main 0 4 {\n movi r0, 12345\n free r0\n exit\n}", "not a live allocation", 0, "main", 1},
		{"stack overflow", "func main 0 4 {\n salloc r0, 99999999\n exit\n}", "stack overflow", 0, "main", 0},
		{"recursive lock", "glob l 1\nfunc main 0 4 {\n glob r0, l\n lock r0\n lock r0\n exit\n}", "recursive lock", 0, "main", 2},
		{"unlock not owner", "glob l 1\nfunc main 0 4 {\n glob r0, l\n unlock r0\n exit\n}", "not owned", 0, "main", 1},
		{"join self", "func main 0 4 {\n tid r0\n join r0\n exit\n}", "join on self", 0, "main", 1},
		{"join unknown", "func main 0 4 {\n movi r0, 77\n join r0\n exit\n}", "unknown thread", 0, "main", 1},
		{"atomic unmapped", "func main 0 4 {\n movi r0, 3\n xadd r1, r0, r0\n exit\n}", "unmapped", 0, "main", 1},
		{"load mid-block", straightLineFault("load r5, r2, 7", 150), "load from unmapped address 0x7", 1, "work", 302},
		{"store mid-block", straightLineFault("store r2, 9, r3", 97), "store to unmapped address 0x9", 1, "work", 196},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				err := runErr(t, c.src, Options{Seed: seed})
				var f *Fault
				if !errors.As(err, &f) {
					t.Fatalf("seed %d: error %v is not a *Fault", seed, err)
				}
				if !strings.Contains(f.Msg, c.wantSub) {
					t.Errorf("seed %d: error %q does not mention %q", seed, err, c.wantSub)
				}
				if f.TID != c.tid || f.Func != c.fn || f.PC != c.pc {
					t.Errorf("seed %d: fault at thread %d %s:%d, want thread %d %s:%d",
						seed, f.TID, f.Func, f.PC, c.tid, c.fn, c.pc)
				}
			}
		})
	}
}

func TestDeadlockDetected(t *testing.T) {
	src := `
glob l 1
func main 0 4 {
    glob r0, l
    lock r0
    fork r1, child, r0
    join r1
    exit
}
func child 1 4 {
    lock r0
    ret r0
}
`
	err := runErr(t, src, Options{})
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error = %v", err)
	}
}

const counterSrc = `
glob counter 1
glob l 1
func worker 1 6 {
loop:
    glob r1, l
    lock r1
    glob r2, counter
    load r3, r2, 0
    addi r3, r3, 1
    store r2, 0, r3
    unlock r1
    addi r0, r0, -1
    br r0, loop, done
done:
    ret r0
}
func main 0 8 {
    movi r0, 500
    fork r1, worker, r0
    fork r2, worker, r0
    fork r3, worker, r0
    call _, worker, r0
    join r1
    join r2
    join r3
    glob r4, counter
    load r5, r4, 0
    print r5
    exit
}
`

func TestMutualExclusion(t *testing.T) {
	// 4 workers x 500 increments under one lock must total 2000 exactly;
	// any lost update means lock semantics are broken.
	for _, seed := range []int64{1, 2, 3, 42} {
		res := run(t, counterSrc, Options{Seed: seed})
		if len(res.Prints) != 1 || res.Prints[0] != 2000 {
			t.Errorf("seed %d: counter = %v, want 2000", seed, res.Prints)
		}
		if res.Threads != 4 {
			t.Errorf("threads = %d", res.Threads)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, counterSrc, Options{Seed: 7})
	b := run(t, counterSrc, Options{Seed: 7})
	if a.Instrs != b.Instrs || a.MemOps != b.MemOps || a.SyncOps != b.SyncOps {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestWaitNotify(t *testing.T) {
	src := `
glob ev 1
glob data 1
func main 0 6 {
    fork r0, consumer, r0
    glob r1, data
    movi r2, 42
    store r1, 0, r2
    glob r3, ev
    notify r3
    join r0
    exit
}
func consumer 1 6 {
    glob r1, ev
    wait r1
    glob r2, data
    load r3, r2, 0
    print r3
    ret r3
}
`
	for _, seed := range []int64{1, 5, 9} {
		res := run(t, src, Options{Seed: seed})
		if len(res.Prints) != 1 || res.Prints[0] != 42 {
			t.Errorf("seed %d: prints = %v", seed, res.Prints)
		}
	}
}

func TestEventAlreadySignaledAndReset(t *testing.T) {
	src := `
glob ev 1
func main 0 4 {
    glob r0, ev
    notify r0
    wait r0       ; already signaled: no block
    reset r0
    notify r0
    wait r0
    print r0
    exit
}
`
	res := run(t, src, Options{})
	if len(res.Prints) != 1 {
		t.Errorf("prints = %v", res.Prints)
	}
}

func TestAtomics(t *testing.T) {
	src := `
glob x 1 = 10
func main 0 8 {
    glob r0, x
    movi r1, 10
    movi r2, 99
    cas r3, r0, r1, r2    ; succeeds: x 10->99, r3=10
    print r3
    cas r3, r0, r1, r2    ; fails: x stays 99, r3=99
    print r3
    movi r1, 1
    xadd r3, r0, r1       ; x 99->100, r3=99
    print r3
    movi r1, 7
    xchg r3, r0, r1       ; x 100->7, r3=100
    print r3
    load r4, r0, 0
    print r4              ; 7
    exit
}
`
	res := run(t, src, Options{})
	want := []int64{10, 99, 99, 100, 7}
	for i, w := range want {
		if res.Prints[i] != w {
			t.Errorf("print %d = %d, want %d", i, res.Prints[i], w)
		}
	}
	if res.SyncOps != 4 {
		t.Errorf("sync ops = %d, want 4", res.SyncOps)
	}
}

func TestCasSpinlock(t *testing.T) {
	// A CAS spinlock protecting a counter: result must be exact.
	src := `
glob spin 1
glob counter 1
func worker 1 8 {
loop:
    glob r1, spin
    movi r2, 0
    movi r3, 1
acquire:
    cas r4, r1, r2, r3
    br r4, acquire, critical   ; r4 != 0 means lock was held
critical:
    glob r5, counter
    load r6, r5, 0
    addi r6, r6, 1
    store r5, 0, r6
    movi r4, 0
    xchg r4, r1, r4            ; release: spin = 0
    addi r0, r0, -1
    br r0, loop, done
done:
    ret r0
}
func main 0 6 {
    movi r0, 300
    fork r1, worker, r0
    fork r2, worker, r0
    call _, worker, r0
    join r1
    join r2
    glob r3, counter
    load r4, r3, 0
    print r4
    exit
}
`
	res := run(t, src, Options{Seed: 13})
	if len(res.Prints) != 1 || res.Prints[0] != 900 {
		t.Errorf("spinlock counter = %v, want 900", res.Prints)
	}
}

func TestYieldAndRand(t *testing.T) {
	src := `
func main 0 4 {
    movi r0, 100
    rand r1, r0
    yield
    movi r0, 0
    rand r2, r0    ; bound 0 gives 0
    print r2
    exit
}
`
	res := run(t, src, Options{})
	if res.Prints[0] != 0 {
		t.Errorf("rand with bound 0 = %v", res.Prints)
	}
}

// TestMaxInstrs: the budget error lands on the first instruction past the
// budget, whether that is an inline straight-line op or one that goes
// through step (the Call in the loop), and with every slice length.
func TestMaxInstrs(t *testing.T) {
	src := `
func f 0 2 {
    ret r0
}
func main 0 2 {
loop:
    addi r0, r0, 1
    addi r1, r1, 2
    call _, f
    jmp loop
}
`
	m := asm.MustAssemble("t", src)
	for _, budget := range []uint64{1000, 1001, 1002, 1003, 1004} {
		for seed := int64(1); seed <= 3; seed++ {
			mach, err := New(m, Options{MaxInstrs: budget, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			res, err := mach.Run()
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Errorf("budget %d seed %d: err = %v", budget, seed, err)
			}
			if res.Instrs != budget+1 || res.BaseCycles != budget+1 {
				t.Errorf("budget %d seed %d: stopped at %d instrs, %d base cycles; want %d",
					budget, seed, res.Instrs, res.BaseCycles, budget+1)
			}
		}
	}
}

func TestEntryWithParamsRejected(t *testing.T) {
	src := "entry f\nfunc f 1 2 {\n exit\n}"
	m := asm.MustAssemble("t", src)
	if _, err := New(m, Options{}); err == nil {
		t.Error("entry with params accepted")
	}
}

func TestThreadLimit(t *testing.T) {
	src := `
func child 1 2 {
    ret r0
}
func main 0 4 {
    movi r0, 100
loop:
    fork r1, child, r0
    join r1
    addi r0, r0, -1
    br r0, loop, out
out:
    exit
}
`
	m := asm.MustAssemble("t", src)
	mach, err := New(m, Options{MaxThreads: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err == nil || !strings.Contains(err.Error(), "thread limit") {
		t.Errorf("err = %v", err)
	}
}

// racySrc has one planted race: both threads store to racy without
// synchronization, while safe is lock-protected.
const racySrc = `
glob racy 1
glob safe 1
glob l 1
func touch 1 6 {
    glob r1, racy
    store r1, 0, r0
    glob r2, l
    lock r2
    glob r3, safe
    load r4, r3, 0
    addi r4, r4, 1
    store r3, 0, r4
    unlock r2
    ret r0
}
func main 0 6 {
    movi r0, 1
    fork r1, touch, r0
    call _, touch, r0
    join r1
    exit
}
`

// instrumentAndRun rewrites racySrc, runs it fully logged, and returns the
// decoded log plus the module for PC checks.
func instrumentAndRun(t *testing.T, mode instrument.Mode, primary sampler.Strategy) (*trace.Log, *lir.Module, *Result) {
	t.Helper()
	orig := asm.MustAssemble("racy", racySrc)
	rw, _, err := instrument.Rewrite(orig, instrument.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs:      len(orig.Funcs),
		Primary:       primary,
		Shadows:       sampler.Evaluated(),
		Writer:        w,
		EnableMemLog:  true,
		EnableSyncLog: true,
		Seed:          3,
		Cost:          core.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := New(rw, Options{Seed: 3, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		t.Fatal(err)
	}
	log, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return log, orig, res
}

func TestInstrumentedRunDetectsPlantedRace(t *testing.T) {
	log, orig, res := instrumentAndRun(t, instrument.ModeSampled, sampler.NewFull())

	result, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	if result.NumRaces == 0 {
		t.Fatal("planted race not detected")
	}
	// Every reported PC must point into the ORIGINAL touch function at a
	// store/load instruction.
	touchIdx := int32(orig.FuncIndex("touch"))
	for _, r := range result.Races {
		for _, pc := range []lir.PC{r.PrevPC, r.CurPC} {
			if pc.Func != touchIdx {
				t.Errorf("race PC %v not in touch (idx %d)", pc, touchIdx)
				continue
			}
			op := orig.Funcs[touchIdx].Code[pc.Index].Op
			if !op.IsMemAccess() {
				t.Errorf("race PC %v points at %v", pc, op)
			}
		}
		if r.Addr != log.Meta.MemOps && r.Addr == 0 {
			t.Errorf("race addr = %#x", r.Addr)
		}
	}
	// The racy address is the global `racy`, the first global (address 512).
	if result.Races[0].Addr != uint64(lir.PageWords) {
		t.Errorf("race addr = %#x, want %#x", result.Races[0].Addr, lir.PageWords)
	}
	// The lock-protected accesses must NOT race: all races on one address.
	for _, r := range result.Races {
		if r.Addr != result.Races[0].Addr {
			t.Errorf("unexpected second racing address %#x", r.Addr)
		}
	}
	if res.RuntimeStats.LoggedMemOps == 0 || res.RuntimeStats.LoggedSyncOps == 0 {
		t.Error("nothing logged")
	}
	if log.Meta.Primary != "Full" || len(log.Meta.Samplers) != 7 {
		t.Errorf("meta: %+v", log.Meta)
	}
}

func TestModeFullAlsoDetects(t *testing.T) {
	log, _, _ := instrumentAndRun(t, instrument.ModeFull, sampler.NewFull())
	result, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	if result.NumRaces == 0 {
		t.Error("ModeFull missed the planted race")
	}
}

func TestSampledModeLogsAllSyncOps(t *testing.T) {
	// Even with a primary sampler that rarely instruments, every sync op
	// must appear in the log (the no-false-positives invariant, §3.2).
	log, _, res := instrumentAndRun(t, instrument.ModeSampled, sampler.NewThreadLocalAdaptive())
	syncs := 0
	for _, evs := range log.Threads {
		for _, e := range evs {
			if e.Kind.IsSync() {
				syncs++
			}
		}
	}
	if uint64(syncs) != res.RuntimeStats.LoggedSyncOps {
		t.Errorf("log has %d sync events, runtime logged %d", syncs, res.RuntimeStats.LoggedSyncOps)
	}
	if syncs == 0 {
		t.Error("no sync events logged")
	}
	// And the log must replay cleanly and verify structurally.
	if err := hb.Replay(log, func(trace.Event) error { return nil }); err != nil {
		t.Errorf("replay: %v", err)
	}
	if err := trace.Verify(log); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestInstrumentedCountsMatchBaseline(t *testing.T) {
	// Instrumentation must not change program semantics: memory op and
	// sync op counts match the uninstrumented run exactly (same seed).
	base := run(t, counterSrc, Options{Seed: 5})

	orig := asm.MustAssemble("t", counterSrc)
	rw, _, err := instrument.Rewrite(orig, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: len(orig.Funcs), Primary: sampler.NewThreadLocalAdaptive(),
		EnableMemLog: true, EnableSyncLog: true, Seed: 5,
		Cost: core.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := New(rw, Options{Seed: 5, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MemOps != base.MemOps || res.SyncOps != base.SyncOps {
		t.Errorf("instrumented mem/sync = %d/%d, baseline %d/%d",
			res.MemOps, res.SyncOps, base.MemOps, base.SyncOps)
	}
	if len(res.Prints) != 1 || res.Prints[0] != 2000 {
		t.Errorf("instrumented result changed: %v", res.Prints)
	}
	if res.BaseCycles != base.BaseCycles {
		t.Errorf("base cycles: instrumented %d vs baseline %d", res.BaseCycles, base.BaseCycles)
	}
	if res.Cycles <= res.BaseCycles {
		t.Error("instrumented run has no extra cycles")
	}
}
