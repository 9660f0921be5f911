// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the LiteRace pipeline through the public entry
// points of each layer, checks every operation's output against an
// independent oracle (hb.DetectReference over the same log), and prints
// one JSON result as the last line of standard output.
//
//	bash perfbench/run.sh --workload detect-full --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run, whose spans
// are written to --spans. NOTES.md maps each layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json; the smoke test keeps them in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"instrs_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"alloc_bytes_per_event", "B"},
	{"peak_heap_mb", "MB"},
	{"esr", "ratio"},
	{"detection_rate", "ratio"},
	{"ok_ops_ratio", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"asm.assemble_ms", "ms"},
	{"instrument.rewrite_ms", "ms"},
	{"interp.ns_per_instr", "ns"},
	{"core.dispatch_ns_per_call", "ns"},
	{"trace.encode_ns_per_event", "ns"},
	{"hb.detect_ns_per_event.sampled", "ns"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.decode_alloc_bytes_per_event", "B"},
	{"hb.merge_ns_per_event", "ns"},
	{"hb.merge_alloc_bytes_per_event", "B"},
	{"shadow.access_ns_per_event", "ns"},
	{"hb.vc_access_ns_per_event", "ns"},
	{"literace.report_ns", "ns"},
	{"stream.ns_per_event.shards-1", "ns"},
	{"stream.ns_per_event.shards-4", "ns"},
	{"stream.finish_ms", "ms"},
	{"stream.alloc_bytes_per_event", "B"},
	{"stream.shard_skew", "ratio"},
	{"collector.wire_ms_per_mb", "ms/MB"},
	{"collector.retained_mb_per_session", "MB"},
	{"obs.overhead_ratio", "ratio"},
	{"tracing_overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sampled-run, detect-full or fleet-stream")
	seed := fs.Int64("seed", 1, "seed the inputs and schedule seeds derive from")
	seconds := fs.Float64("seconds", 30, "how long sampled-run and detect-full measure")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	ops := fs.Int("ops", 0, "run exactly this many operations instead (0: the workload's own rule)")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		fixedOps: *ops,
	}
	if *traced != 0 {
		b.tr = newTracer()
	}
	env := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d %s\n", b.workload, b.seed, *traced, env)

	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if b.tr != nil {
		path, err := b.tr.write(*spans, fmt.Sprintf("%s-seed%d", b.workload, b.seed), env)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %s\n", path)
	}
	names := make([]string, 0, len(res.Metrics))
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 1
		}
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, name := range names {
		fmt.Fprintf(stdout, "# %-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
