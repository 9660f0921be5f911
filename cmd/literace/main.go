// Command literace is the command-line front end of the LiteRace pipeline:
// assemble LIR programs, apply the sampling instrumentation, execute them
// on the deterministic interpreter, and detect data races in the logs.
//
// Subcommands:
//
//	literace asm     <prog.lir>              assemble and validate
//	literace disasm  <prog.lir>              round-trip through the disassembler
//	literace rewrite <prog.lir>              show instrumentation statistics
//	literace run     <prog.lir> -log out.trc execute, writing an event log
//	literace detect  <out.trc> [-src p.lir]  offline race detection on a log
//	literace explain <prog.lir | out.trc>    forensic race report: evidence, witnesses, near misses
//	literace watch   <out.trc> [-src p.lir]  online detection, tailing a live or completed log
//	literace fsck    <out.trc>               log health report (JSON)
//	literace dump    <out.trc> [-n N]        print decoded log events
//	literace timeline <out.trc> -o t.json    export a Perfetto/Chrome trace timeline
//	literace report  <prog.lir>              run + detect in one step
//	literace bench   [-list | key]           run a built-in benchmark program
//	literace stats   <prog.lir>              run the pipeline, print telemetry
//	literace serve-collector                 fleet ingestion service for shipped logs
//	literace ship    <out.trc> -to ADDR -producer NAME  stream a log to a collector
//
// Shared flags for run/report: -sampler NAME (default TL-Ad), -seed N.
// run and detect accept -metrics <file> to write a JSON telemetry
// snapshot; run also accepts -cpuprofile/-memprofile pprof hooks. run and
// bench accept -serve ADDR to expose live telemetry over HTTP (/metrics
// in Prometheus format, /snapshot, /healthz, /api/timeseries, /dashboard,
// /debug/pprof) while the pipeline executes; see docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"literace"
	"literace/internal/harness"
	"literace/internal/obs"
	"literace/internal/obs/coverprof"
	"literace/internal/obs/diag"
	"literace/internal/obs/export"
	"literace/internal/obs/ledger"
	"literace/internal/obs/timeline"
	"literace/internal/obs/tsdb"
	"literace/internal/trace"
	"literace/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "asm":
		err = cmdAsm(args)
	case "disasm":
		err = cmdDisasm(args)
	case "rewrite":
		err = cmdRewrite(args)
	case "run":
		err = cmdRun(args)
	case "detect":
		err = cmdDetect(args)
	case "explain":
		err = cmdExplain(args)
	case "watch":
		err = cmdWatch(args)
	case "fsck":
		err = cmdFsck(args)
	case "dump":
		err = cmdDump(args)
	case "timeline":
		err = cmdTimeline(args)
	case "diag":
		err = cmdDiag(args)
	case "report":
		// `report ls|show|compare` operate on the run-report ledger; the
		// legacy `report <prog.lir>` form runs the pipeline.
		if len(args) > 0 && (args[0] == "ls" || args[0] == "show" || args[0] == "compare") {
			err = cmdLedgerReport(args[0], args[1:])
		} else {
			err = cmdReport(args)
		}
	case "bench":
		err = cmdBench(args)
	case "stats":
		err = cmdStats(args)
	case "serve-collector":
		err = cmdServeCollector(args)
	case "ship":
		err = cmdShip(args)
	case "help", "-h", "--help":
		usage()
	default:
		rootLogger().Error("unknown command", "cmd", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		rootLogger().Error("command failed", "cmd", cmd, "err", err)
		if errors.Is(err, ledger.ErrDriftExceeded) {
			os.Exit(3)
		}
		if errors.Is(err, diag.ErrSLOBreached) {
			os.Exit(4)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: literace <asm|disasm|rewrite|run|detect|explain|watch|fsck|dump|timeline|diag|report|bench|stats|serve-collector|ship> [flags] [args]
  asm     <prog.lir>                assemble and validate
  disasm  <prog.lir>                print canonical disassembly
  rewrite <prog.lir>                print instrumentation statistics
  run     <prog.lir> [-log f] [-sampler S] [-seed N] [-sched] [-serve ADDR] [-metrics f] [-report-out f] [-ledger dir] [-cpuprofile f] [-memprofile f]
  detect  <log.trc> [-src prog.lir] [-salvage] [-json] [-metrics f] [-report-out f] [-ledger dir]
  explain <prog.lir> [-sampler S] [-seed N] [-scale N] [-margin N] [-window N] [-max-occ N] [-o f] [-html|-json]
  explain <log.trc> -src prog.lir [same rendering flags]
          forensic race report: per-occurrence vector-clock evidence, sync frontiers, locksets,
          witness interleavings, burst attribution, near-miss analytics; always exits 0 on success
  watch   <log.trc> [-src prog.lir] [-shards N] [-poll d] [-idle d] [-quiet] [-json] [-serve ADDR] [-metrics f]
          [-forward ADDR [-producer NAME]] [-slo] [-slo-sustain N] [-slo-max-lag N] [-slo-max-stage-ms N] [-slo-max-crc N] [-slo-max-gaps N]
          online detection over a live or completed log: races stream to stderr as found,
          the final report (identical to detect's) prints when the log completes or goes idle;
          -slo arms the health watchdog (exit 4 on sustained breach)
  fsck    <log.trc>                 salvage-decode and print a JSON health report
  dump    <log.trc> [-n N]          print decoded log events
  timeline <log.trc> [-o t.json] [-src prog.lir] [-salvage]  export a Perfetto/Chrome trace timeline
  diag    <log.trc> [-o dir] [-src prog.lir] [-shards N] [-ledger dir]
          replay the log through the instrumented pipeline and write a diagnostics bundle
          (flight recorder, health report, obs snapshot, fsck, profiles, timeline)
  report  <prog.lir> [-sampler S] [-seed N]          run + detect in one step
  report  ls       [-ledger dir]                     list run-report ledger entries
  report  show     [-ledger dir] [-json] <id>        print one ledger report
  report  compare  [-ledger dir] [-strict] [-json] <A> <B>   drift between two reports (exit 3 past thresholds)
  bench   [-list | key] [-serve ADDR] [-overhead-out f]
          [-stream-out f [-stream-bench key] [-stream-baseline f]]
          [-collector-out f [-collector-producers N] [-collector-baseline f]]
          [-soak-out f [-soak-seconds S] [-soak-producers N] [-soak-interval d] [-soak-min-samples N] [-soak-baseline f]]
          run benchmarks (see -list; exit 3 on baseline drift; -soak-out churns a fault-injected
          producer fleet through a collector and gates on bounded heap/backlog over the recorded history)
  stats   <prog.lir> [-sampler S] [-seed N] [-json]  pipeline telemetry + coverage report
  serve-collector [-listen ADDR] [-serve ADDR] [-out dir] [-ledger dir] [-addr-file f] [-src prog.lir]
          [-done-after N] [-done-timeout d] [-resume-grace d] [-idle-timeout d] [-max-sessions N] [-max-reorder N]
          [-slo] [-slo-sustain N] [-slo-max-lag N] [-slo-max-crc N] [-slo-max-gaps N] [-slo-max-shed N] [-slo-max-disconnects N]
          fleet ingestion: accept shipped logs from many producers, run detection per producer,
          print the deduplicated fleet race report on shutdown (exit 4 on sustained SLO breach)
  ship    <log.trc> -to ADDR -producer NAME [-module M] [-frame N] [-attempts N] [-throttle d] [-telemetry] [-quiet]
          stream a log to a collector with retry and resume; prints the collector's report
          (byte-identical to detect's on a healthy link)
Commands that log diagnostics accept -log-format text|json and -log-level debug|info|warn|error
(structured slog lines on stderr; stdout carries only the command's data output).
Exit codes: 0 ok, 1 error, 2 usage, 3 baseline/report drift, 4 sustained SLO breach (see docs/OBSERVABILITY.md).`)
}

func loadProgram(path string) (*literace.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(path, ".lir")
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return literace.Assemble(name, string(src))
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("asm wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d functions\n", p.NumFuncs())
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("disasm wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(p.Disassemble())
	return nil
}

func cmdRewrite(args []string) error {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	show := fs.Bool("print", false, "print the rewritten module")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("rewrite wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	stats, err := p.Instrument()
	if err != nil {
		return err
	}
	fmt.Printf("instrumented %d functions: %d clones, %d memory accesses, %d spills\n",
		stats.Functions, stats.Clones, stats.MemAccesses, stats.Spills)
	if *show {
		fmt.Print(p.Disassemble())
	}
	return nil
}

// startCPUProfile begins CPU profiling when path is non-empty and returns
// a stop function (a no-op otherwise).
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes a heap profile when path is non-empty.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle allocations so the profile reflects live heap
	return pprof.WriteHeapProfile(f)
}

// writeMetrics writes reg's snapshot as stable JSON when path is
// non-empty.
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "" || reg == nil {
		return nil
	}
	data, err := reg.Snapshot().MarshalStable()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// serveTelemetry starts the embedded telemetry server when addr is
// non-empty, returning a shutdown function (a no-op otherwise). health,
// when non-nil, upgrades /healthz to the scored report (watch -slo);
// races, when non-nil, backs /races with a live literace.races/v1
// document (a raceFeed). A background sampler fills a fixed-memory
// time-series store from the registry so /api/timeseries and /dashboard
// show live history.
func serveTelemetry(addr string, reg *obs.Registry, health func() *diag.Health, races func() []byte, log *slog.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	store := tsdb.New(tsdb.Options{})
	samp := tsdb.NewSampler(store, reg, tsdb.SamplerOptions{Proc: true})
	samp.Start()
	srv, err := export.ServeRaces(addr, reg, health, store, races)
	if err != nil {
		samp.Stop()
		return nil, err
	}
	log.Info("serving telemetry",
		"url", fmt.Sprintf("http://%s/dashboard", srv.Addr()),
		"endpoints", "/metrics /snapshot /healthz /races /api/timeseries /dashboard /debug/pprof")
	return func() {
		samp.Stop()
		if err := srv.Close(); err != nil {
			log.Warn("telemetry shutdown", "err", err)
		}
	}, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	samplerName := fs.String("sampler", "TL-Ad", "sampling strategy")
	seed := fs.Int64("seed", 1, "scheduler seed")
	logPath := fs.String("log", "literace.trc", "event log output path")
	metricsPath := fs.String("metrics", "", "write a JSON telemetry snapshot to this file")
	serveAddr := fs.String("serve", "", "serve live telemetry over HTTP at this address (e.g. :9090) while running")
	sched := fs.Bool("sched", true, "log scheduler slice markers (enables `literace timeline` thread tracks)")
	reportOut := fs.String("report-out", "", "write a literace.runreport/v2 artifact (coverage table, races, ESR) to this file")
	ledgerDir := fs.String("ledger", "", "append the run report to the ledger at this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run wants one source file")
	}
	log, err := lcfg.logger("run")
	if err != nil {
		return err
	}
	stop, err := startCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer stop()
	var reg *obs.Registry
	if *metricsPath != "" || *serveAddr != "" {
		reg = obs.New()
	}
	var feed *raceFeed
	var races func() []byte
	if *serveAddr != "" {
		feed = newRaceFeed()
		races = feed.doc
	}
	shutdown, err := serveTelemetry(*serveAddr, reg, nil, races, log)
	if err != nil {
		return err
	}
	defer shutdown()
	span := reg.StartSpan("assemble")
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	span.End()
	span = reg.StartSpan("rewrite")
	if _, err := p.Instrument(); err != nil {
		return err
	}
	span.End()
	f, err := os.Create(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	wantReport := *reportOut != "" || *ledgerDir != ""
	res, err := p.Run(literace.Config{
		Sampler: *samplerName, Seed: *seed, SchedTrace: *sched, LogTo: f, Obs: reg, Log: log,
		// A run report needs the coverage table and race→burst
		// attribution, so the report flags force both collectors on.
		Coverage: wantReport,
		Online:   wantReport,
	})
	if err != nil {
		return err
	}
	if feed != nil && res.OnlineReport != nil {
		feed.setFinal(res.OnlineReport)
	}
	fmt.Printf("ran %s: %d instrs, %d mem ops (%.2f%% logged), %d sync ops, log %s\n",
		fs.Arg(0), res.Meta.Instrs, res.Meta.MemOps, res.EffectiveRate*100, res.Meta.SyncOps, *logPath)
	for _, v := range res.Prints {
		fmt.Println("print:", v)
	}
	if wantReport {
		rr := p.BuildRunReport(res, res.OnlineReport, 0)
		if err := emitRunReport(rr, *reportOut, *ledgerDir, log); err != nil {
			return err
		}
	}
	if err := writeMetrics(*metricsPath, reg); err != nil {
		return err
	}
	if err := writeMemProfile(*memProfile); err != nil {
		return err
	}
	return f.Close()
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	srcPath := fs.String("src", "", "original .lir source, to resolve function names")
	salvage := fs.Bool("salvage", false, "tolerate a damaged log: drop corrupt chunks, weaken orderings, split races into confirmed/unconfirmed")
	asJSON := fs.Bool("json", false, "emit the machine-readable literace.races/v1 race list instead of the text report")
	metricsPath := fs.String("metrics", "", "write a JSON telemetry snapshot to this file")
	reportOut := fs.String("report-out", "", "write a literace.runreport/v2 artifact (races, ESR; no coverage table offline) to this file")
	ledgerDir := fs.String("ledger", "", "append the detection report to the ledger at this directory")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("detect wants one log file")
	}
	log, err := lcfg.logger("detect")
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	var resolve func(int32) string
	if *srcPath != "" {
		p, err := loadProgram(*srcPath)
		if err != nil {
			return err
		}
		resolve = p.FuncName
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.New()
	}
	// The stdout payload is either the text report or, with -json, the
	// machine-readable literace.races/v1 document (MarshalRaces).
	printReport := func(rep *literace.Report) error {
		if !*asJSON {
			fmt.Print(rep.String())
			return nil
		}
		doc, err := rep.MarshalRaces()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	}
	if *salvage {
		rep, srep, err := literace.DetectSalvaged(f, resolve, reg)
		if err != nil {
			return err
		}
		log.Warn("salvage decode", "summary", srep.Summary())
		if err := printReport(rep); err != nil {
			return err
		}
		if err := emitRunReport(literace.BuildDetectReport(rep, 0), *reportOut, *ledgerDir, log); err != nil {
			return err
		}
		return writeMetrics(*metricsPath, reg)
	}
	rep, err := literace.DetectObs(f, resolve, reg)
	if err != nil {
		return err
	}
	if err := printReport(rep); err != nil {
		return err
	}
	if err := emitRunReport(literace.BuildDetectReport(rep, 0), *reportOut, *ledgerDir, log); err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err == nil {
		if verr := literace.VerifyLog(f); verr != nil {
			if *asJSON {
				// stdout carries only the JSON document.
				log.Warn("log verification", "err", verr)
			} else {
				fmt.Printf("log verification: %v\n", verr)
			}
		}
	}
	return writeMetrics(*metricsPath, reg)
}

// cmdFsck salvage-decodes a log without running detection and prints a
// machine-readable health report: the damage summary plus enough counts to
// decide whether `detect` (healthy) or `detect -salvage` (damaged) is the
// right next step.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fsck wants one log file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	log, srep, err := trace.Salvage(f)
	if err != nil {
		return err
	}
	out := struct {
		File    string               `json:"file"`
		Healthy bool                 `json:"healthy"`
		Summary string               `json:"summary"`
		Events  int                  `json:"events"`
		Threads int                  `json:"threads"`
		Module  string               `json:"module,omitempty"`
		Seed    int64                `json:"seed"`
		Report  *trace.SalvageReport `json:"report"`
	}{
		File:    fs.Arg(0),
		Healthy: !srep.Lossy(),
		Summary: srep.Summary(),
		Events:  log.NumEvents(),
		Threads: len(log.Threads),
		Module:  log.Meta.Module,
		Seed:    log.Meta.Seed,
		Report:  srep,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if !out.Healthy {
		return fmt.Errorf("log is damaged: %s (analyze with detect -salvage)", srep.Summary())
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 50, "maximum events to print per thread (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dump wants one log file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	fmt.Printf("module %s seed %d: %d threads, %d events, %d mem ops (%d logged bytes)\n",
		log.Meta.Module, log.Meta.Seed, len(log.Threads), log.NumEvents(), log.Meta.MemOps, log.Meta.LoggedBytes)
	if log.Meta.Primary != "" {
		fmt.Printf("primary %s", log.Meta.Primary)
		if len(log.Meta.Samplers) > 0 {
			fmt.Printf("; shadow samplers (mask bits): %v", log.Meta.Samplers)
		}
		fmt.Println()
	}
	for _, tid := range log.TIDs() {
		evs := log.Threads[tid]
		fmt.Printf("-- thread %d: %d events\n", tid, len(evs))
		limit := len(evs)
		if *n > 0 && limit > *n {
			limit = *n
		}
		for _, e := range evs[:limit] {
			fmt.Println("  ", e.String())
		}
		if limit < len(evs) {
			fmt.Printf("   ... %d more\n", len(evs)-limit)
		}
	}
	return nil
}

// cmdTimeline exports a log as a Chrome trace-event / Perfetto JSON
// timeline: per-thread tracks with scheduler slices and sampled bursts,
// sync micro-slices, happens-before flow arrows, and race markers. Open
// the output at https://ui.perfetto.dev or chrome://tracing.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	outPath := fs.String("o", "timeline.json", "output path for the trace-event JSON")
	srcPath := fs.String("src", "", "original .lir source, to resolve function names on slices and arrows")
	salvage := fs.Bool("salvage", false, "force the salvage decoder even on a healthy log")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("timeline wants one log file")
	}
	log, err := lcfg.logger("timeline")
	if err != nil {
		return err
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := timeline.Options{Salvage: *salvage}
	if *srcPath != "" {
		p, err := loadProgram(*srcPath)
		if err != nil {
			return err
		}
		opts.Resolve = p.FuncName
	}
	out, stats, err := timeline.Build(data, opts)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		return err
	}
	mode := "clean decode"
	if stats.Salvaged {
		mode = "salvage decode"
		if stats.Degraded {
			mode = "salvage decode, degraded"
		}
	}
	fmt.Printf("timeline %s: %d events (%s), %d threads, %d slices, %d bursts, %d sync ops, %d hb arrows",
		*outPath, stats.Events, mode, stats.Threads, stats.Slices, stats.Bursts, stats.SyncOps, stats.Edges)
	if stats.EdgesDropped > 0 {
		fmt.Printf(" (+%d dropped)", stats.EdgesDropped)
	}
	fmt.Printf(", %d races\n", stats.Races)
	if stats.Slices == 0 {
		log.Warn("no scheduler markers in this log; time axis is replay order (record with `literace run -sched`)")
	}
	log.Info("open the timeline at https://ui.perfetto.dev (Open trace file) or chrome://tracing", "file", *outPath)
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	samplerName := fs.String("sampler", "TL-Ad", "sampling strategy")
	seed := fs.Int64("seed", 1, "scheduler seed")
	context := fs.Int("context", 0, "lines of disassembly context around each racing instruction")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	if _, err := p.Instrument(); err != nil {
		return err
	}
	res, rep, err := p.RunAndDetect(literace.Config{Sampler: *samplerName, Seed: *seed})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("sampler %s logged %.2f%% of %d memory ops\n",
		*samplerName, res.EffectiveRate*100, res.Meta.MemOps)
	fmt.Print(rep.String())
	if *context > 0 {
		for _, rc := range rep.Races {
			fmt.Printf("\nrace %s <-> %s:\n", rc.First, rc.Second)
			fmt.Print(p.SourceContext(rc.FirstPC, *context))
			if rc.SecondPC != rc.FirstPC {
				fmt.Print(p.SourceContext(rc.SecondPC, *context))
			}
		}
	}
	return nil
}

// cmdStats runs the whole pipeline (assemble, rewrite, run, replay,
// detect) with the observability layer enabled and reports the collected
// telemetry: phase timings, live sampler ESR, burst histogram, timestamp
// counter usage, scheduler and replay statistics.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	samplerName := fs.String("sampler", "TL-Ad", "sampling strategy")
	seed := fs.Int64("seed", 1, "scheduler seed")
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats wants one source file")
	}
	reg := obs.New()
	span := reg.StartSpan("assemble")
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	span.End()
	span = reg.StartSpan("rewrite")
	if _, err := p.Instrument(); err != nil {
		return err
	}
	span.End()
	res, rep, err := p.RunAndDetect(literace.Config{Sampler: *samplerName, Seed: *seed, Coverage: true, Obs: reg})
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	if *asJSON {
		return snap.WriteJSON(os.Stdout)
	}
	fmt.Printf("%s under %s: %d instrs, %.4f%% of %d memory ops logged, %d static races\n",
		fs.Arg(0), *samplerName, res.Meta.Instrs, res.EffectiveRate*100, res.Meta.MemOps, len(rep.Races))
	fmt.Print(snap.String())
	printCoverage(res.Profile)
	return nil
}

// printCoverage renders the per-function sampler coverage collected by
// a stats run: an ESR distribution summary (so the per-function spread
// is visible, not just the global gauge) plus the per-function table
// and low-coverage warnings.
func printCoverage(p *coverprof.Profile) {
	if p == nil || len(p.Funcs) == 0 {
		return
	}
	fmt.Printf("\nper-function sampler coverage (%d functions):\n", len(p.Funcs))
	// Distribution of per-function memory ESR in basis points, bucketed
	// by decade — a text rendering of the coverprof.func_esr_bp
	// histogram the registry exports.
	buckets := []struct {
		label string
		lo    float64
	}{
		{">=10%", 0.10},
		{"1-10%", 0.01},
		{"0.1-1%", 0.001},
		{"<0.1%", 0},
	}
	counts := make([]int, len(buckets))
	profiled := 0
	for _, f := range p.Funcs {
		if f.MemExec == 0 {
			continue
		}
		profiled++
		esr := f.MemESR()
		for i, bk := range buckets {
			if esr >= bk.lo {
				counts[i]++
				break
			}
		}
	}
	fmt.Printf("  per-function ESR distribution (%d with memory traffic):\n", profiled)
	for i, bk := range buckets {
		bar := strings.Repeat("#", counts[i])
		fmt.Printf("    %-8s %4d %s\n", bk.label, counts[i], bar)
	}
	fmt.Printf("  %-20s %10s %10s %7s %9s %12s %12s %10s\n",
		"FUNC", "CALLS", "SAMPLED", "BURSTS", "RATE", "MEM-EXEC", "MEM-LOGGED", "ESR")
	for _, f := range p.Funcs {
		fmt.Printf("  %-20s %10d %10d %7d %8.3f%% %12d %12d %9.4f%%\n",
			f.Name, f.Calls, f.Sampled, f.Bursts, f.CurRate*100, f.MemExec, f.MemLogged, f.MemESR()*100)
	}
	for _, w := range p.LowCoverage(coverprof.DefaultWarnMinMem, coverprof.DefaultWarnMaxESR) {
		fmt.Printf("  warning: %s\n", w.Message)
	}
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	list := fs.Bool("list", false, "list benchmark keys")
	samplerName := fs.String("sampler", "TL-Ad", "sampling strategy")
	seed := fs.Int64("seed", 1, "scheduler seed")
	scale := fs.Int("scale", 0, "workload scale (0 = default)")
	serveAddr := fs.String("serve", "", "serve live telemetry over HTTP at this address while benchmarking")
	overheadOut := fs.String("overhead-out", "", "run the full overhead sweep and write the BENCH_overhead.json artifact here")
	streamOut := fs.String("stream-out", "", "run the streaming-vs-batch shard sweep and write the BENCH_stream.json artifact here")
	streamBench := fs.String("stream-bench", "apache-1", "benchmark the -stream-out sweep traces")
	streamBaseline := fs.String("stream-baseline", "", "compare the -stream-out artifact against this committed baseline (exit 3 on drift)")
	collectorOut := fs.String("collector-out", "", "run the fleet collector parity sweep and write the BENCH_collector.json artifact here")
	collectorProducers := fs.Int("collector-producers", 0, "concurrent producers in the -collector-out sweep (0 = default)")
	collectorBaseline := fs.String("collector-baseline", "", "compare the -collector-out artifact against this committed baseline (exit 3 on drift)")
	soakOut := fs.String("soak-out", "", "run the long-haul collector soak and write the BENCH_soak.json artifact here")
	soakSeconds := fs.Float64("soak-seconds", 0, "soak duration in seconds (0 = 30)")
	soakProducers := fs.Int("soak-producers", 0, "concurrent producers churned by the soak (0 = 8)")
	soakInterval := fs.Duration("soak-interval", 0, "soak time-series sample interval (0 = 250ms)")
	soakMinSamples := fs.Int("soak-min-samples", 0, "per-series sample floor the soak gates on (0 = 50)")
	soakBaseline := fs.String("soak-baseline", "", "compare the -soak-out artifact against this committed baseline (exit 3 on drift)")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	log, err := lcfg.logger("bench")
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) { log.Info(fmt.Sprintf(format, args...)) }
	var reg *obs.Registry
	if *serveAddr != "" {
		reg = obs.New()
	}
	var feed *raceFeed
	var races func() []byte
	if *serveAddr != "" {
		feed = newRaceFeed()
		races = feed.doc
	}
	shutdown, err := serveTelemetry(*serveAddr, reg, nil, races, log)
	if err != nil {
		return err
	}
	defer shutdown()
	if *overheadOut != "" {
		cfg := harness.Config{
			Seeds: []int64{*seed},
			Scale: *scale,
			Obs:   reg,
			Logf:  logf,
		}
		sum, err := harness.BuildOverheadSummary(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(*overheadOut)
		if err != nil {
			return err
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d benchmarks, %d samplers (schema %s, scale %d, seed %d)\n",
			*overheadOut, len(sum.Benchmarks), len(sum.Samplers), sum.Schema, sum.Scale, sum.Seed)
		return nil
	}
	if *streamOut != "" {
		cfg := harness.Config{
			Seeds: []int64{*seed},
			Scale: *scale,
			Obs:   reg,
			Logf:  logf,
		}
		sum, err := harness.BuildStreamBenchSummary(cfg, *streamBench, nil)
		if err != nil {
			return err
		}
		f, err := os.Create(*streamOut)
		if err != nil {
			return err
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %s sweep over %d shard counts, parity %v (schema %s, scale %d, seed %d)\n",
			*streamOut, sum.Benchmark, len(sum.Runs), sum.Parity, sum.Schema, sum.Scale, sum.Seed)
		if !sum.Parity {
			return fmt.Errorf("streaming detection lost parity with batch (see %s)", *streamOut)
		}
		if *streamBaseline != "" {
			base, err := harness.ReadStreamSummary(*streamBaseline)
			if err != nil {
				return err
			}
			if err := harness.CompareStreamSummaries(base, sum); err != nil {
				return fmt.Errorf("stream baseline %s: %w", *streamBaseline, err)
			}
			log.Info("stream artifact matches baseline", "baseline", *streamBaseline)
		}
		return nil
	}
	if *collectorOut != "" {
		cfg := harness.Config{
			Seeds: []int64{*seed},
			Scale: *scale,
			Obs:   reg,
			Logf:  logf,
		}
		sum, err := harness.BuildCollectorBenchSummary(cfg, *collectorProducers)
		if err != nil {
			return err
		}
		f, err := os.Create(*collectorOut)
		if err != nil {
			return err
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d producers, %d fleet races (%d confirmed), parity %v (schema %s, scale %d)\n",
			*collectorOut, len(sum.Producers), sum.FleetRaces, sum.FleetConfirmed, sum.Parity, sum.Schema, sum.Scale)
		if !sum.Parity {
			return fmt.Errorf("collector reports lost parity with offline detection (see %s)", *collectorOut)
		}
		if *collectorBaseline != "" {
			base, err := harness.ReadCollectorSummary(*collectorBaseline)
			if err != nil {
				return err
			}
			if err := harness.CompareCollectorSummaries(base, sum); err != nil {
				return fmt.Errorf("collector baseline %s: %w", *collectorBaseline, err)
			}
			log.Info("collector artifact matches baseline", "baseline", *collectorBaseline)
		}
		return nil
	}
	if *soakOut != "" {
		sum, err := harness.BuildSoakSummary(harness.SoakConfig{
			Producers:      *soakProducers,
			Duration:       time.Duration(*soakSeconds * float64(time.Second)),
			SampleInterval: *soakInterval,
			MinSamples:     *soakMinSamples,
			Scale:          *scale,
			Logf:           logf,
		})
		if err != nil {
			return err
		}
		f, err := os.Create(*soakOut)
		if err != nil {
			return err
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d shipments by %d producers over %.0fs, %d kills, %d series, pass %v (schema %s)\n",
			*soakOut, sum.Shipments, sum.Producers, sum.DurationSecs, sum.Kills, sum.TotalSeries, sum.Pass, sum.Schema)
		if !sum.Pass {
			return fmt.Errorf("soak gates failed: samples_ok=%v bounded_heap=%v bounded_backlog=%v shipments_ok=%v (see %s)",
				sum.SamplesOK, sum.BoundedHeap, sum.BoundedBacklog, sum.ShipmentsOK, *soakOut)
		}
		if *soakBaseline != "" {
			base, err := harness.ReadSoakSummary(*soakBaseline)
			if err != nil {
				return err
			}
			if err := harness.CompareSoakSummaries(base, sum); err != nil {
				return fmt.Errorf("soak baseline %s: %w", *soakBaseline, err)
			}
			log.Info("soak artifact matches baseline", "baseline", *soakBaseline)
		}
		return nil
	}
	if *list || fs.NArg() == 0 {
		for _, b := range workloads.All() {
			fmt.Printf("%-14s %s\n", b.Key, b.Description)
		}
		return nil
	}
	b, ok := workloads.ByKey(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown benchmark %q (use -list)", fs.Arg(0))
	}
	p, err := literace.Assemble(b.Key, b.Source(*scale))
	if err != nil {
		return err
	}
	if _, err := p.Instrument(); err != nil {
		return err
	}
	res, rep, err := p.RunAndDetect(literace.Config{Sampler: *samplerName, Seed: *seed, Obs: reg, Log: log})
	if err != nil {
		return err
	}
	if feed != nil {
		feed.setFinal(rep)
	}
	fmt.Printf("%s under %s: %.2f%% of %d memory ops logged\n",
		b.Name, *samplerName, res.EffectiveRate*100, res.Meta.MemOps)
	fmt.Print(rep.String())
	return nil
}
