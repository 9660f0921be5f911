package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"literace/internal/hb"
	"literace/internal/race"
	"literace/internal/trace"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].name != w.Name || got[i].unit != w.Unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, got[i].name, got[i].unit, w.Name, w.Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, bf.EndToEnd)
	check("per_layer", perLayerMetrics, bf.PerLayer)
}

// runBench runs the benchmark in process and returns its result line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return r
}

func checkMetrics(t *testing.T, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.Metrics[w.Name]
		if !ok || m.Unit != w.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", w.Name, m, ok, w.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := runBench(t, "--workload", w.Name, "--seed", "7", "--seconds", "0", "--ops", "8", "--trace", "0")
			checkMetrics(t, r, bf.EndToEnd)
			if got := r.Metrics["ok_ops_ratio"].Value; got != 1 {
				t.Errorf("ok_ops_ratio = %v, want 1 (no failed operations)", got)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	bf := loadBenchmarkFile(t)
	dir := t.TempDir()
	// Two input cycles: one untraced, one traced.
	r := runBench(t, "--workload", "detect-full", "--seed", "7", "--seconds", "0", "--ops", "16",
		"--trace", "1", "--spans", dir)
	checkMetrics(t, r, bf.PerLayer)
	t.Logf("collector.retained_mb_per_session = %.1f MB", r.Metrics["collector.retained_mb_per_session"].Value)

	f, err := os.Open(filepath.Join(dir, "detect-full-seed7.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan() // environment header
	names := make(map[string]bool)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %+v: bad interval or self time", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"setup", "asm.assemble", "detect-full.op", "literace.DetectEngine", "trace.ReadAll", "hb.Replay", "collector.ShipBytes"} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// TestReferenceMatchesEpochEngine checks the oracle against the epoch
// engine: both must find the same static races on every full log.
func TestReferenceMatchesEpochEngine(t *testing.T) {
	b := &bench{}
	progs, _, err := b.setup(false)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := fullInputs(progs, scheduleSeeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		l, err := trace.ReadAll(bytes.NewReader(in.log))
		if err != nil {
			t.Fatal(err)
		}
		res, err := hb.Detect(l, hb.Options{SamplerBit: hb.AllEvents, Engine: hb.EngineEpoch})
		if err != nil {
			t.Fatal(err)
		}
		set := race.NewSet()
		set.AddResult(res)
		if set.Len() != len(in.want.races) || set.Len() == 0 {
			t.Errorf("%s: epoch engine %d static races, reference %d", in.p.key, set.Len(), len(in.want.races))
		}
		for _, st := range set.Races() {
			k := raceKey(pcOf(st.Key.A), pcOf(st.Key.B))
			if !in.want.races[k] {
				t.Errorf("%s: epoch race %s missing from the reference", in.p.key, k)
			}
		}
	}
}
