// Command watch replays a log directory through the ONLINE pipeline:
// records stream in time order into a core.Watcher, which emits alarms
// (early-warning bursts, with external corroboration when present) and
// confirmed failures the moment their log lines arrive — the shape a
// production health monitor would take.
//
//	watch -logs ./logs -scheduler slurm
//
// The ingestion layer is damage-tolerant: unreadable or empty files are
// skipped with a warning, malformed lines are quarantined, and the
// replay reports what was lost. -chaos injects record-level faults into
// the replay itself (shuffled delivery, drops, clock skew …) and
// -reorder sizes the watcher's re-sequencing buffer that absorbs them.
//
// The replay is crash-safe: -checkpoint persists the watcher's
// detection state every -every interval and on SIGINT/SIGTERM. A later
// run with -resume restores it and continues with no duplicate and no
// missed detections.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpcfail"
	"hpcfail/internal/core"
	"hpcfail/internal/prof"
	"hpcfail/internal/render"
	"hpcfail/internal/topology"
	"hpcfail/internal/version"
)

// options carries the parsed command line.
type options struct {
	logs       string
	sched      string
	alarms     bool
	reorder    time.Duration
	chaos      string
	checkpoint string
	every      time.Duration
	resume     bool
	mine       bool
}

func main() {
	var o options
	flag.StringVar(&o.logs, "logs", "logs", "log directory")
	flag.StringVar(&o.sched, "scheduler", "slurm", "scheduler dialect: slurm or torque")
	flag.BoolVar(&o.alarms, "alarms", true, "emit early-warning alarms")
	flag.DurationVar(&o.reorder, "reorder", 0, "reorder-buffer window (0 = feed in arrival order)")
	flag.StringVar(&o.chaos, "chaos", "", `inject record-level faults into the replay, e.g. "mode=shuffle,intensity=0.2"`)
	flag.StringVar(&o.checkpoint, "checkpoint", "", "watcher snapshot file, written every -every and on shutdown")
	flag.DurationVar(&o.every, "every", time.Minute, "checkpoint interval for -checkpoint")
	flag.BoolVar(&o.resume, "resume", false, "resume: restore the -checkpoint snapshot and skip the records it already replayed")
	flag.BoolVar(&o.mine, "mine", false, "mine templates from quarantined/unclassified lines; print CANDIDATE promotions and a summary")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	showVer := flag.Bool("version", false, "print build version and exit")

	flag.Parse()
	if *showVer {
		version.Print(os.Stdout, "watch")
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "watch:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = run(ctx, o, os.Stdout, os.Stderr)
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "watch:", err)
		os.Exit(1)
	}
}

// saveSnapshot and loadSnapshot are the shared atomic checkpoint
// persistence in core, used by both this command and the HTTP server.
func saveSnapshot(path string, w *core.Watcher) error { return core.SaveSnapshotFile(path, w) }

func loadSnapshot(path string, w *core.Watcher) (bool, error) {
	return core.LoadSnapshotFile(path, w)
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	st := topology.SchedulerSlurm
	if o.sched == "torque" {
		st = topology.SchedulerTorque
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint (the watcher state to resume from)")
	}
	store, rep, err := hpcfail.LoadLogsReport(o.logs, st)
	if err != nil {
		return err
	}
	render.Warnings(stderr, rep.Warnings(), 0)
	if store.Len() == 0 {
		return fmt.Errorf("no records under %s", o.logs)
	}

	recs := store.All()
	if o.chaos != "" {
		ccfg, err := hpcfail.ParseChaosSpec(o.chaos)
		if err != nil {
			return fmt.Errorf("bad -chaos: %w", err)
		}
		inj := hpcfail.NewChaosInjector(ccfg)
		recs = inj.CorruptRecords(recs)
		fmt.Fprintln(stderr, inj.Report.String())
	}

	detections, alarms := 0, 0
	w := core.NewWatcher(core.DefaultConfig(), func(d core.Detection) {
		detections++
		fmt.Fprintf(stdout, "%s FAILURE  %-12s terminal=%s", d.Time.Format(time.RFC3339), d.Node, d.Terminal)
		if d.JobID != 0 {
			fmt.Fprintf(stdout, " job=%d", d.JobID)
		}
		fmt.Fprintln(stdout)
	})
	w.ReorderWindow = o.reorder

	// -mine: quarantined lines never became records, so they are fed
	// once up front; unclassified records join the miner as the replay
	// reaches them, which interleaves CANDIDATE promotions with the
	// alarm stream in replay order.
	var m *hpcfail.TemplateMiner
	if o.mine {
		m = hpcfail.NewMiner(hpcfail.MinerConfig{})
		m.OnPromote = func(c hpcfail.MinedCandidate) {
			burst := ""
			if c.Burst {
				burst = " (burst)"
			}
			fmt.Fprintf(stdout, "CANDIDATE %-24s count=%d%s template=%q\n", c.Category, c.Count, burst, c.Template)
		}
		for i := range rep.Streams {
			rep.Streams[i].EachQuarantined(m.Ingest)
		}
	}
	if o.alarms {
		w.OnAlarm = func(a core.Alarm) {
			alarms++
			ext := ""
			if a.HasExternal {
				ext = " +external"
			}
			fmt.Fprintf(stdout, "%s ALARM    %-12s precursor burst%s\n", a.Time.Format(time.RFC3339), a.Node, ext)
		}
	}

	// Resume: the snapshot carries the watcher's complete detection
	// state plus how far into the (deterministic) record sequence the
	// previous run got, so the replay re-enters exactly where it left
	// off — no duplicate and no missed detections.
	start := 0
	if o.resume {
		restored, err := loadSnapshot(o.checkpoint, w)
		if err != nil {
			return err
		}
		if restored {
			start = w.Stats().Fed
			if start > len(recs) {
				return fmt.Errorf("checkpoint is ahead of the corpus (%d fed, %d records) — flags or logs changed since", start, len(recs))
			}
			fmt.Fprintf(stderr, "restored watcher checkpoint: skipping %d already-replayed records\n", start)
		}
	}

	var tick *time.Ticker
	if o.checkpoint != "" {
		every := o.every
		if every <= 0 {
			every = time.Minute
		}
		tick = time.NewTicker(every)
		defer tick.Stop()
	}
	for i := start; i < len(recs); i++ {
		if ctx.Err() != nil {
			if o.checkpoint == "" {
				fmt.Fprintf(stderr, "interrupted after %d/%d records; no -checkpoint was set, a rerun starts from scratch\n", i, len(recs))
			} else {
				if err := saveSnapshot(o.checkpoint, w); err != nil {
					return fmt.Errorf("write shutdown checkpoint: %w", err)
				}
				fmt.Fprintf(stderr, "interrupted after %d/%d records; rerun with -resume -checkpoint %s to continue\n", i, len(recs), o.checkpoint)
			}
			return fmt.Errorf("replay stopped at record %d/%d: %w", i, len(recs), hpcfail.ErrInterrupted)
		}
		if tick != nil {
			select {
			case <-tick.C:
				if err := saveSnapshot(o.checkpoint, w); err != nil {
					fmt.Fprintln(stderr, "warning: checkpoint write failed:", err)
				}
			default:
			}
		}
		if m != nil && recs[i].Category == "unclassified" && recs[i].Msg != "" {
			m.Ingest(recs[i].Msg)
		}
		w.Feed(recs[i])
	}
	w.Flush()
	if o.checkpoint != "" {
		if err := saveSnapshot(o.checkpoint, w); err != nil {
			fmt.Fprintln(stderr, "warning: final checkpoint write failed:", err)
		}
	}

	ws := w.Stats()
	fmt.Fprintf(stdout, "\nreplayed %d records: %d alarms, %d confirmed failures\n", ws.Fed, alarms, detections)
	fmt.Fprintln(stdout, rep.String())
	fmt.Fprintf(stdout, "watcher: %d out-of-order arrivals, %d state entries evicted\n", ws.Reordered, ws.Evicted)
	if rep.Degraded() || len(rep.Missing) > 0 {
		fmt.Fprintf(stdout, "degraded ingest: %d files skipped, %d streams missing, %d lines quarantined\n",
			len(rep.Skipped), len(rep.Missing), rep.TotalQuarantined())
	}
	if m != nil {
		views, _ := m.TemplatesSince(0, 0)
		render.MinedTemplates(stdout, m.Stats(), views)
	}
	return nil
}
