// External test package: harness (via the collector bench) links the
// root package, so an in-package test file here would form an import
// cycle.
package literace_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus micro-benchmarks for the
// runtime primitives whose cost the paper's overhead model is built on.
// Each table/figure bench reports the headline quantity of that experiment
// as a custom metric so `-bench` output doubles as a results summary.

import (
	"bytes"
	"io"
	"testing"

	"literace/internal/core"
	"literace/internal/harness"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/sampler"
	"literace/internal/trace"
	"literace/internal/workloads"
)

func benchCfg() harness.Config {
	return harness.Config{Seeds: []int64{1}}
}

// BenchmarkTable2_Benchmarks regenerates the benchmark inventory.
func BenchmarkTable2_Benchmarks(b *testing.B) {
	var funcs int
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		funcs = 0
		for _, r := range rows {
			funcs += r.Funcs
		}
	}
	b.ReportMetric(float64(funcs), "total-funcs")
}

// comparisonMatrix runs the §5.3 study once (shared by the Table 3,
// Figure 4/5, and Table 4 benches via sub-benchmarks).
func BenchmarkTable3_EffectiveSamplingRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := harness.RunComparisons(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rows := m.Table3()
		for _, r := range rows {
			if r.Name == "TL-Ad" {
				b.ReportMetric(r.WeightedESR*100, "TL-Ad-ESR-%")
			}
		}
	}
}

func BenchmarkFigure4_DetectionRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := harness.RunComparisons(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rows := m.DetectionRates(harness.DetectAll, false)
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.Rate["TL-Ad"]*100, "TL-Ad-detect-%")
		b.ReportMetric(avg.Rate["G-Ad"]*100, "G-Ad-detect-%")
	}
}

func BenchmarkFigure5_RareFrequent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := harness.RunComparisons(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rare := m.DetectionRates(harness.DetectRare, true)
		freq := m.DetectionRates(harness.DetectFrequent, true)
		b.ReportMetric(rare[len(rare)-1].Rate["TL-Ad"]*100, "TL-Ad-rare-%")
		b.ReportMetric(freq[len(freq)-1].Rate["Rnd10"]*100, "Rnd10-freq-%")
	}
}

func BenchmarkTable4_RaceCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := harness.RunComparisons(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rows := m.Table4()
		races := 0
		for _, r := range rows {
			races += r.Races
		}
		b.ReportMetric(float64(races), "total-static-races")
	}
}

func BenchmarkTable5_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := harness.RunOverheadStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range study.Table5 {
			if r.Name == "Average (w/o Microbench)" {
				b.ReportMetric(r.LiteRaceX, "LiteRace-x")
				b.ReportMetric(r.FullX, "FullLogging-x")
			}
		}
	}
}

func BenchmarkFigure6_OverheadBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := harness.RunOverheadStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var dispatch float64
		for _, r := range study.Figure6 {
			dispatch += r.Dispatch - r.Baseline
		}
		b.ReportMetric(dispatch/float64(len(study.Figure6))*100, "avg-dispatch-overhead-%")
	}
}

// --- runtime primitive micro-benchmarks ---

// BenchmarkDispatchCheck measures the per-function-entry cost of the
// thread-local adaptive dispatch check (the paper keeps this to 8
// instructions; here it is one profile update).
func BenchmarkDispatchCheck(b *testing.B) {
	rt, err := core.NewRuntime(core.Config{NumFuncs: 64, Primary: sampler.NewThreadLocalAdaptive()})
	if err != nil {
		b.Fatal(err)
	}
	ts := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Dispatch(int32(i&63), false)
	}
}

// BenchmarkDispatchCheckShadowed measures dispatch with all seven
// evaluation samplers running in shadow (the §5.3 comparison mode).
func BenchmarkDispatchCheckShadowed(b *testing.B) {
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: 64, Primary: sampler.NewFull(), Shadows: sampler.Evaluated(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Dispatch(int32(i&63), false)
	}
}

// BenchmarkMemLog measures appending one sampled memory access to the
// per-thread log buffer.
func BenchmarkMemLog(b *testing.B) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: 4, Primary: sampler.NewFull(), Writer: w, EnableMemLog: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := rt.Thread(0)
	pc := lir.PC{Func: 1, Index: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.LogWrite(uint64(i), pc, 0xFF); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncLog measures logging one synchronization operation,
// including the hashed-counter timestamp draw (§4.2).
func BenchmarkSyncLog(b *testing.B) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: 4, Primary: sampler.NewFull(), Writer: w, EnableSyncLog: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := rt.Thread(0)
	pc := lir.PC{Func: 1, Index: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.LogSync(trace.KindAcquire, trace.OpLock, uint64(i&1023), pc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsDisabledOverhead proves the observability layer costs
// nothing when disabled: with no registry configured, the dispatch and
// memory-log hot path must show 0 B/op — the telemetry hooks reduce to nil
// checks. Compare against BenchmarkDispatchCheck/BenchmarkMemLog for the
// ns/op baseline.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: 64, Primary: sampler.NewThreadLocalAdaptive(),
		Writer: w, EnableMemLog: true, // Obs deliberately nil
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := rt.Thread(0)
	pc := lir.PC{Func: 1, Index: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, mask := ts.Dispatch(int32(i&63), false)
		if inst {
			if err := ts.LogWrite(uint64(i), pc, mask); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkObsEnabledOverhead is the companion measurement with a live
// registry attached, quantifying the enabled-path cost.
func BenchmarkObsEnabledOverhead(b *testing.B) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.New()
	w.SetObs(reg)
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: 64, Primary: sampler.NewThreadLocalAdaptive(),
		Writer: w, EnableMemLog: true, Obs: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := rt.Thread(0)
	pc := lir.PC{Func: 1, Index: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, mask := ts.Dispatch(int32(i&63), false)
		if inst {
			if err := ts.LogWrite(uint64(i), pc, mask); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInterpreter measures raw interpretation speed on the mutex
// counter workload; instructions-per-second is the substrate "clock".
func BenchmarkInterpreter(b *testing.B) {
	bench, _ := workloads.ByKey("concrt-sched")
	mod, err := bench.Module(1)
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach, err := interp.New(mod.Clone(), interp.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := mach.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkInstrumentedInterpreter measures the same workload under full
// LiteRace instrumentation, the end-to-end runtime cost.
func BenchmarkInstrumentedInterpreter(b *testing.B) {
	bench, _ := workloads.ByKey("concrt-sched")
	mod, err := bench.Module(1)
	if err != nil {
		b.Fatal(err)
	}
	rw, _, err := instrument.Rewrite(mod, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := core.NewRuntime(core.Config{
			NumFuncs: len(mod.Funcs), Primary: sampler.NewThreadLocalAdaptive(),
			Writer: w, EnableMemLog: true, EnableSyncLog: true, Seed: int64(i),
			Cost: core.DefaultCostModel(),
		})
		if err != nil {
			b.Fatal(err)
		}
		mach, err := interp.New(rw.Clone(), interp.Options{Seed: int64(i), Runtime: rt})
		if err != nil {
			b.Fatal(err)
		}
		res, err := mach.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Close(mach.Meta(res)); err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// dryadFullLog runs dryad under full logging with schedule seed 1 and
// returns the encoded log.
func dryadFullLog(b *testing.B) []byte {
	b.Helper()
	bench, _ := workloads.ByKey("dryad")
	mod, err := bench.Module(1)
	if err != nil {
		b.Fatal(err)
	}
	rw, _, err := instrument.Rewrite(mod, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs: len(mod.Funcs), Primary: sampler.NewFull(),
		Writer: w, EnableMemLog: true, EnableSyncLog: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	mach, err := interp.New(rw, interp.Options{Seed: 1, Runtime: rt})
	if err != nil {
		b.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkDetector measures offline happens-before detection throughput
// over a decoded log (events per second drive the offline phase's cost,
// §3.2's "the offline algorithm needs to process fewer events").
func BenchmarkDetector(b *testing.B) {
	log, err := trace.ReadAll(bytes.NewReader(dryadFullLog(b)))
	if err != nil {
		b.Fatal(err)
	}
	events := float64(log.NumEvents())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkReadAll measures batch decoding of a whole log: the framing
// scan, the per-thread decode (one worker per thread, up to GOMAXPROCS)
// and the pass that builds the chunk order.
func BenchmarkReadAll(b *testing.B) {
	data := dryadFullLog(b)
	var events int
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		events = log.NumEvents()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLogCodec measures trace encode+decode round-trip throughput.
func BenchmarkLogCodec(b *testing.B) {
	ev := trace.Event{Kind: trace.KindWrite, TID: 1, PC: lir.PC{Func: 3, Index: 9}, Addr: 0xABC, Mask: 0x7F}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		tw := w.Thread(1)
		for j := 0; j < 1000; j++ {
			if err := tw.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(trace.Meta{}); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadAll(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
