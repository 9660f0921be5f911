package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"literace"
	"literace/internal/collector"
	"literace/internal/obs"
	"literace/internal/obs/diag"
)

// cmdWatch attaches the online detection pipeline to a trace file that
// may still be growing: it tails the file, analyzes chunks as the writer
// flushes them, reports each dynamic race the moment it is found
// (structured stderr log), and prints the final report (stdout) once the
// log completes — the trailer appears — or stops growing for -idle. On a
// completed healthy trace the stdout report is byte-identical to
// `literace detect`; on a damaged or torn one, to `literace detect
// -salvage`. With -json the final stdout payload is the machine-readable
// literace.races/v1 document instead (byte-identical to `detect -json`
// on the same bytes).
//
// With -slo the flight recorder and health watchdog are armed: every
// poll the watchdog evaluates the SLO policy against the recorder and
// the pipeline probe, /healthz (when -serve is up) answers the scored
// report, and a breach sustained for -slo-sustain consecutive polls
// makes the command exit 4 after the final report.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	srcPath := fs.String("src", "", "original .lir source, to resolve function names")
	shards := fs.Int("shards", 0, "detection worker count (0 = default)")
	poll := fs.Duration("poll", 200*time.Millisecond, "how often to re-check a quiet file for growth")
	idle := fs.Duration("idle", 2*time.Second, "give up waiting once the file has not grown for this long (the torn tail is then analyzed under salvage rules)")
	quiet := fs.Bool("quiet", false, "suppress incremental per-race output")
	asJSON := fs.Bool("json", false, "emit the machine-readable literace.races/v1 race list instead of the final text report")
	forward := fs.String("forward", "", "also forward the log bytes to a fleet collector at this address (best-effort; local detection stays authoritative)")
	forwardName := fs.String("producer", "", "producer name for -forward (default: the log file name)")
	metricsPath := fs.String("metrics", "", "write a JSON telemetry snapshot to this file")
	serveAddr := fs.String("serve", "", "serve live telemetry over HTTP at this address while watching")
	slo := fs.Bool("slo", false, "arm the SLO watchdog: exit 4 when a health check breaches for -slo-sustain consecutive polls")
	sloSustain := fs.Int("slo-sustain", 0, "consecutive breaching polls before the breach counts as sustained (0 = default)")
	sloMaxLag := fs.Int("slo-max-lag", -2, "max decode→deliver lag in events (-1 disables, -2 = default)")
	sloMaxStageMS := fs.Int64("slo-max-stage-ms", -2, "max single-stage span in milliseconds (-1 disables, -2 = default)")
	sloMaxCRC := fs.Int64("slo-max-crc", -2, "tolerated CRC failures (-1 disables, -2 = default)")
	sloMaxGaps := fs.Int64("slo-max-gaps", -2, "tolerated sequence gaps (-1 disables, -2 = default)")
	sloMaxBackpressure := fs.Int64("slo-max-backpressure", -2, "tolerated backpressure stalls (-1 disables, -2 = default)")
	sloMaxDegrade := fs.Int64("slo-max-degrade", -2, "tolerated degrade-ordinal transitions (-1 disables, -2 = default)")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("watch wants one log file")
	}
	log, err := lcfg.logger("watch")
	if err != nil {
		return err
	}
	var resolve func(int32) string
	if *srcPath != "" {
		p, err := loadProgram(*srcPath)
		if err != nil {
			return err
		}
		resolve = p.FuncName
	}
	var reg *obs.Registry
	if *metricsPath != "" || *serveAddr != "" {
		reg = obs.New()
	}

	// The flight recorder rides along whenever the watchdog or any
	// telemetry sink is on; it is nil (free) otherwise.
	var rec *diag.Recorder
	var wd *diag.Watchdog
	if *slo || reg != nil {
		rec = diag.NewRecorderObs(diag.DefaultCapacity, reg)
	}
	if *slo {
		policy := diag.DefaultSLO()
		if *sloSustain > 0 {
			policy.SustainPolls = *sloSustain
		}
		if *sloMaxLag > -2 {
			policy.MaxDecodeLag = *sloMaxLag
		}
		if *sloMaxStageMS > -2 {
			if *sloMaxStageMS < 0 {
				policy.MaxStageNanos = -1
			} else {
				policy.MaxStageNanos = *sloMaxStageMS * int64(time.Millisecond)
			}
		}
		if *sloMaxCRC > -2 {
			policy.MaxCRCFailures = *sloMaxCRC
		}
		if *sloMaxGaps > -2 {
			policy.MaxSeqGaps = *sloMaxGaps
		}
		if *sloMaxBackpressure > -2 {
			policy.MaxBackpressure = *sloMaxBackpressure
		}
		if *sloMaxDegrade > -2 {
			policy.MaxDegradeTransitions = *sloMaxDegrade
		}
		wd = diag.NewWatchdog(policy)
	}
	var health func() *diag.Health
	if wd != nil {
		health = wd.Health
	}
	// When serving, /races answers the live per-pair aggregate while the
	// log is still growing and the final canonical list after Finish.
	var feed *raceFeed
	var races func() []byte
	if *serveAddr != "" {
		feed = newRaceFeed()
		races = feed.doc
	}
	shutdown, err := serveTelemetry(*serveAddr, reg, health, races, log)
	if err != nil {
		return err
	}
	defer shutdown()

	streamLog, err := lcfg.logger("stream")
	if err != nil {
		return err
	}
	opts := literace.StreamOptions{Shards: *shards, Obs: reg, Diag: rec, Log: streamLog}
	var announce func(literace.StreamRace)
	if !*quiet {
		seen := make(map[string]bool)
		announce = func(r literace.StreamRace) {
			key := r.First + "\x00" + r.Second
			if seen[key] {
				return
			}
			seen[key] = true
			kind := "read-write"
			if r.WriteWrite {
				kind = "write-write"
			}
			log.Info("race",
				"first", r.First, "second", r.Second, "kind", kind,
				"addr", fmt.Sprintf("%#x", r.Addr), "unconfirmed", r.Unconfirmed)
		}
	}
	if announce != nil || feed != nil {
		opts.OnRace = func(r literace.StreamRace) {
			if feed != nil {
				feed.note(r)
			}
			if announce != nil {
				announce(r)
			}
		}
	}
	sess := literace.NewStreamSession(resolve, opts)

	// -forward mirrors every byte fed to the local session into a fleet
	// collector. Forwarding is best-effort: link failures buffer and
	// retry in the background, and a collector that never comes back
	// only costs a warning — the local report below stays authoritative.
	var fw *collector.Forwarder
	if *forward != "" {
		name := *forwardName
		if name == "" {
			name = fs.Arg(0)
			if i := strings.LastIndexByte(name, '/'); i >= 0 {
				name = name[i+1:]
			}
		}
		fw, err = collector.NewForwarder(collector.ShipOptions{
			Addr:     *forward,
			Producer: name,
			Log:      log,
			// Ship this watcher's own metrics alongside the bytes so the
			// collector's fleet dashboard shows per-producer vitals (the
			// capability degrades silently against an old collector).
			Telemetry: reg,
		})
		if err != nil {
			return err
		}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	pollWatchdog := func() {
		if wd == nil {
			return
		}
		h := wd.Poll(rec, sess.Probe())
		if h != nil && !h.OK() {
			log.Warn("SLO check failing", "status", h.Status, "score", h.Score,
				"sustained", h.Sustained, "polls", h.Polls)
		}
	}

	buf := make([]byte, 256<<10)
	lastGrowth := time.Now()
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			lastGrowth = time.Now()
			if err := sess.Feed(buf[:n]); err != nil {
				return err
			}
			if fw != nil {
				fw.Append(buf[:n])
			}
			pollWatchdog()
		}
		if sess.Complete() {
			break
		}
		if rerr == io.EOF {
			if time.Since(lastGrowth) >= *idle {
				log.Info("no growth; analyzing the tail as-is", "idle", idle.String())
				break
			}
			sess.Idle()
			pollWatchdog()
			time.Sleep(*poll)
			continue
		}
		if rerr != nil {
			return rerr
		}
	}

	rep, res, err := sess.Finish()
	if err != nil {
		return err
	}
	pollWatchdog()
	if feed != nil {
		feed.setFinal(rep)
	}
	if res.Salvage.Lossy() {
		log.Warn("salvage decode", "summary", res.Salvage.Summary())
	}
	log.Info("stream finished",
		"events", res.MemOps+res.SyncOps, "events_per_sec", int64(res.EventsPerSec),
		"shards", len(res.ShardEvents), "dispatched", res.Dispatched,
		"stalls", res.Stalls, "backpressure", res.Backpressure)
	if *asJSON {
		doc, err := rep.MarshalRaces()
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(doc); err != nil {
			return err
		}
	} else {
		fmt.Print(rep.String())
	}
	if fw != nil {
		if final, err := fw.Close(); err != nil {
			log.Warn("forward to collector failed", "addr", *forward, "err", err)
		} else {
			log.Info("forwarded to collector", "addr", *forward,
				"races", final.Races, "degraded", final.Degraded, "complete", final.Complete)
		}
	}
	if err := writeMetrics(*metricsPath, reg); err != nil {
		return err
	}
	if wd != nil {
		if err := wd.Err(); err != nil {
			return err
		}
		if h := wd.Health(); h != nil {
			log.Info("SLO healthy", "score", h.Score, "polls", h.Polls)
		}
	}
	return nil
}
