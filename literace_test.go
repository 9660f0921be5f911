package literace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

const racyProgram = `
glob shared 1
glob protected 1
glob lk 1
func touch 1 6 {
    glob r1, shared
    store r1, 0, r0
    glob r2, lk
    lock r2
    glob r3, protected
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

func TestPipelineEndToEnd(t *testing.T) {
	p, err := Assemble("racy", racyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFuncs() != 2 {
		t.Errorf("NumFuncs = %d", p.NumFuncs())
	}
	stats, err := p.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Functions != 2 || stats.Clones != 4 || stats.MemAccesses == 0 {
		t.Errorf("instrument stats: %+v", stats)
	}
	if _, err := p.Instrument(); err == nil {
		t.Error("double instrument accepted")
	}

	res, rep, err := p.RunAndDetect(Config{Sampler: "Full", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveRate != 1 {
		t.Errorf("Full sampler rate = %v", res.EffectiveRate)
	}
	if len(rep.Races) == 0 {
		t.Fatal("planted race not found")
	}
	for _, r := range rep.Races {
		if !strings.HasPrefix(r.First, "touch:") || !strings.HasPrefix(r.Second, "touch:") {
			t.Errorf("race names not resolved: %+v", r)
		}
		if strings.Contains(r.First, "protected") {
			t.Errorf("lock-protected access reported: %+v", r)
		}
	}
	if s := rep.String(); !strings.Contains(s, "touch:") {
		t.Errorf("report render: %s", s)
	}
}

func TestRunRequiresInstrument(t *testing.T) {
	p, err := Assemble("racy", racyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Config{}); err == nil {
		t.Error("Run on uninstrumented program accepted")
	}
}

func TestUnknownSampler(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Config{Sampler: "bogus"}); err == nil {
		t.Error("unknown sampler accepted")
	}
}

// TestDetectEngineNames checks the deprecated engine name argument:
// empty and "epoch" select the one engine, anything else is an error.
func TestDetectEngineNames(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Run(Config{Sampler: "Full", LogTo: &buf}); err != nil {
		t.Fatal(err)
	}
	want, err := DetectObs(bytes.NewReader(buf.Bytes()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "epoch"} {
		got, err := DetectEngine(bytes.NewReader(buf.Bytes()), nil, nil, name)
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if got.String() != want.String() {
			t.Errorf("engine %q: report differs from DetectObs", name)
		}
	}
	if _, err := DetectEngine(bytes.NewReader(buf.Bytes()), nil, nil, "vc"); err == nil {
		t.Error("engine \"vc\" accepted")
	}
}

func TestExternalLogWriter(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Run(Config{Sampler: "Full", LogTo: &buf}); err != nil {
		t.Fatal(err)
	}
	rep, err := Detect(bytes.NewReader(buf.Bytes()), p.FuncName)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Error("no races via external log")
	}
	// RunAndDetect refuses an external writer.
	if _, _, err := p.RunAndDetect(Config{LogTo: &buf}); err == nil {
		t.Error("RunAndDetect accepted LogTo")
	}
}

func TestSamplersList(t *testing.T) {
	names := Samplers()
	if len(names) != 8 || names[0] != "TL-Ad" || names[7] != "Full" {
		t.Errorf("Samplers() = %v", names)
	}
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := p.Run(Config{Sampler: n, Seed: 2}); err != nil {
			t.Errorf("sampler %s: %v", n, err)
		}
	}
}

func TestDisassembleAndFuncName(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if !strings.Contains(p.Disassemble(), "func touch") {
		t.Error("disassembly missing function")
	}
	if p.FuncName(0) != "touch" || p.FuncName(99) != "fn99" || p.FuncName(-1) != "fn-1" {
		t.Error("FuncName resolution broken")
	}
}

// TestEmbeddedDetector drives the embedded API from real goroutines: two
// racing writers on one address, plus a properly locked counter.
func TestEmbeddedDetector(t *testing.T) {
	d, err := NewDetector(Options{Regions: 4, Sampler: "Full", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		regionWorker = 1
		addrRacy     = 0x1000
		addrSafe     = 0x2000
		lockVar      = 0x3000
	)
	var mu sync.Mutex

	main := d.Thread(0)
	main.Enter(0)

	var wg sync.WaitGroup
	for i := int32(1); i <= 2; i++ {
		th := d.StartThread(main, i)
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			th.Enter(regionWorker)
			th.Write(addrRacy, 1) // unsynchronized: the race
			mu.Lock()
			th.Lock(lockVar)
			th.Read(addrSafe, 2)
			th.Write(addrSafe, 3)
			th.Unlock(lockVar)
			mu.Unlock()
			th.Exit()
			th.End()
			if th.Err() != nil {
				t.Errorf("thread error: %v", th.Err())
			}
		}(th)
	}
	wg.Wait()
	main.Join(1)
	main.Join(2)
	main.Exit()
	main.End()

	rep, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report from in-memory detector")
	}
	foundRacy, foundSafe := false, false
	for _, r := range rep.Races {
		if r.Addr == addrRacy {
			foundRacy = true
		}
		if r.Addr == addrSafe {
			foundSafe = true
		}
	}
	if !foundRacy {
		t.Errorf("embedded race not found: %+v", rep.Races)
	}
	if foundSafe {
		t.Errorf("lock-protected address reported: %+v", rep.Races)
	}
	if _, err := d.Close(); err == nil {
		t.Error("double Close accepted")
	}
}

func TestEmbeddedValidation(t *testing.T) {
	if _, err := NewDetector(Options{}); err == nil {
		t.Error("Regions=0 accepted")
	}
	if _, err := NewDetector(Options{Regions: 1, Sampler: "nope"}); err == nil {
		t.Error("bad sampler accepted")
	}
	d, err := NewDetector(Options{Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := d.Thread(0)
	th.Enter(5) // out of range
	if th.Err() == nil {
		t.Error("out-of-range region accepted")
	}
	// Accesses outside any region are counted but unsampled; must not panic.
	th2 := d.Thread(1)
	th2.Read(1, 0)
	th2.Write(1, 0)
	th2.Exit() // exit with empty stack must not panic
}

func TestEmbeddedSamplingSkipsCheaply(t *testing.T) {
	d, err := NewDetector(Options{Regions: 2, Sampler: "TL-Ad", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := d.Thread(0)
	sampledCount := 0
	for i := 0; i < 1000; i++ {
		if th.Enter(1) {
			sampledCount++
		}
		th.Write(0x100, 1)
		th.Exit()
	}
	th.End()
	rep, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sampledCount >= 1000 || sampledCount < 10 {
		t.Errorf("sampled %d/1000 region entries", sampledCount)
	}
	if rep.Meta.MemOps != 1000 {
		t.Errorf("MemOps = %d, want 1000 (all accesses counted)", rep.Meta.MemOps)
	}
}

func TestEmbeddedAllocSuppressesReuse(t *testing.T) {
	d, err := NewDetector(Options{Regions: 2, Sampler: "Full"})
	if err != nil {
		t.Fatal(err)
	}
	a := d.Thread(0)
	a.Enter(0)
	a.Write(0x5000, 1)
	a.Free(0x5000, 8)
	a.Exit()
	a.End()

	b := d.Thread(1)
	b.Enter(1)
	b.Alloc(0x5000, 8)
	b.Write(0x5000, 2)
	b.Exit()
	b.End()

	rep, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 0 {
		t.Errorf("reuse race not suppressed: %+v", rep.Races)
	}
}

func TestOnlineMatchesOffline(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	res, offline, err := p.RunAndDetect(Config{Sampler: "Full", Seed: 5, Online: true})
	if err != nil {
		t.Fatal(err)
	}
	online := res.OnlineReport
	if online == nil {
		t.Fatal("no online report")
	}
	if len(online.Races) != len(offline.Races) {
		t.Fatalf("online %d races vs offline %d", len(online.Races), len(offline.Races))
	}
	for i := range online.Races {
		a, b := online.Races[i], offline.Races[i]
		if a.First != b.First || a.Second != b.Second || a.Count != b.Count {
			t.Errorf("race %d differs: online %+v offline %+v", i, a, b)
		}
	}
}

func TestOnlineDisabledByDefault(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(Config{Sampler: "Full"})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineReport != nil {
		t.Error("online report produced without Online flag")
	}
}

func TestSourceContext(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := p.RunAndDetect(Config{Sampler: "Full", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Fatal("no races")
	}
	r := rep.Races[0]
	ctx := p.SourceContext(r.FirstPC, 2)
	if !strings.Contains(ctx, "func touch") || !strings.Contains(ctx, "=>") {
		t.Errorf("context:\n%s", ctx)
	}
	if !strings.Contains(ctx, "store") {
		t.Errorf("context does not show the racing store:\n%s", ctx)
	}
	// Out-of-range handling.
	if !strings.Contains(p.SourceContext(PC{Func: 99}, 1), "unknown function") {
		t.Error("bad function not reported")
	}
	if !strings.Contains(p.SourceContext(PC{Func: 0, Index: 999}, 1), "out of range") {
		t.Error("bad index not reported")
	}
	// Window clamping at function boundaries must not panic.
	_ = p.SourceContext(PC{Func: 0, Index: 0}, 100)
}

func TestVerifyLog(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Run(Config{Sampler: "TL-Ad", LogTo: &buf}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyLog(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("runtime-produced log fails verification: %v", err)
	}
	if err := VerifyLog(strings.NewReader("garbage")); err == nil {
		t.Error("garbage verified")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	p, _ := Assemble("racy", racyProgram)
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := p.RunAndDetect(Config{Sampler: "Full"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Races) != len(rep.Races) || back.Races[0].First != rep.Races[0].First {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}
