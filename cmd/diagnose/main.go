// Command diagnose runs the holistic failure-diagnosis pipeline over a
// directory of raw logs (as produced by logsim or a compatible tool):
//
//	diagnose -logs ./logs -scheduler slurm
//
// It prints every detected node failure with its inferred root cause,
// job attribution and lead times, followed by summary breakdowns.
// -stream switches ingestion to the sharded streaming loader (bounded
// memory, parallel parse); output is identical either way.
//
// With -wal the streaming load checkpoints its progress into a
// write-ahead-logged journal, and SIGINT/SIGTERM stop it cleanly at a
// chunk boundary (partial ingest ledger on stderr, non-zero exit).
// A later invocation with -resume picks up from the last checkpoint and
// produces output identical to an uninterrupted run.
//
// -mine appends a template-mining section: the lines the static
// profiles rejected (quarantined or unclassified), clustered online
// into templates with promoted candidate signatures starred. The
// report above the section stays byte-identical to a run without it.
// -mined-profile loads a profile previously exported by cmd/minectl or
// GET /v1/templates?format=profile and reclaims the quarantined lines
// it covers as classified records (sequential loader only).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"hpcfail"
	"hpcfail/internal/prof"
	"hpcfail/internal/render"
	"hpcfail/internal/topology"
	"hpcfail/internal/version"
)

// options carries the parsed command line.
type options struct {
	logs    string
	sched   string
	full    bool
	stream  bool
	workers int
	shards  int
	wal     string
	resume  bool
	mine    bool
	profile string
	// memprofile is where run/runJSON write a heap profile just before
	// they return, while the store and the result are still reachable.
	memprofile string
}

func main() {
	var (
		o          options
		jsonMode   bool
		cpuprofile string
		showVer    bool
	)
	flag.StringVar(&o.logs, "logs", "logs", "log directory")
	flag.StringVar(&o.sched, "scheduler", "slurm", "scheduler dialect: slurm or torque")
	flag.BoolVar(&o.full, "full", false, "print per-failure evidence")
	flag.BoolVar(&jsonMode, "json", false, "emit one JSON object per diagnosis instead of tables")
	flag.BoolVar(&o.stream, "stream", false, "use the sharded streaming loader (same output, bounded memory)")
	flag.IntVar(&o.workers, "workers", 0, "streaming parse/diagnosis workers (0 = GOMAXPROCS)")
	flag.IntVar(&o.shards, "shards", 0, "store shard count (0 = default)")
	flag.StringVar(&o.wal, "wal", "", "checkpoint-journal directory (implies -stream; makes the load resumable)")
	flag.BoolVar(&o.resume, "resume", false, "resume an interrupted load from the -wal journal")
	flag.BoolVar(&o.mine, "mine", false, "append a mined-template report over quarantined/unclassified lines")
	flag.StringVar(&o.profile, "mined-profile", "", "mined profile JSON; reclaims quarantined lines it classifies (sequential loader only)")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile of the loaded store and result to this file")
	flag.BoolVar(&showVer, "version", false, "print build version and exit")
	flag.Parse()
	if showVer {
		version.Print(os.Stdout, "diagnose")
		return
	}

	stopProf, err := prof.Start(cpuprofile, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if jsonMode {
		err = runJSON(ctx, o, os.Stdout, os.Stderr)
	} else {
		err = run(ctx, o, os.Stdout, os.Stderr)
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
}

// load ingests the corpus via the loader the options select and runs
// the matching pipeline. The streaming path produces identical results
// to the sequential one — equivalence the test suite enforces. On an
// interrupted journaled load the partial ingest ledger is returned
// alongside the error so the caller can report progress.
func load(ctx context.Context, o options, st topology.SchedulerType) (*hpcfail.Store, *hpcfail.IngestReport, *hpcfail.Result, error) {
	if o.resume && o.wal == "" {
		return nil, nil, nil, fmt.Errorf("-resume requires -wal (the journal to resume from)")
	}
	if o.profile != "" && (o.stream || o.wal != "") {
		return nil, nil, nil, fmt.Errorf("-mined-profile requires the sequential loader (drop -stream/-wal)")
	}
	if o.stream || o.wal != "" {
		sopts := hpcfail.StreamOptions{Workers: o.workers, Shards: o.shards}
		if o.wal != "" {
			j, err := hpcfail.OpenWAL(o.wal, hpcfail.WALOptions{})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("open -wal journal: %w", err)
			}
			defer j.Close()
			sopts.Journal = j
		}
		var (
			ss  *hpcfail.ShardedStore
			rep *hpcfail.IngestReport
			err error
		)
		if o.resume {
			ss, rep, err = hpcfail.ResumeLogs(ctx, o.logs, st, sopts)
		} else {
			ss, rep, err = hpcfail.LoadLogsStreamContext(ctx, o.logs, st, sopts)
		}
		if err != nil {
			return nil, rep, nil, err
		}
		res := hpcfail.DiagnoseShardedReport(ss, rep, o.workers)
		return res.Store, rep, res, nil
	}
	var mc hpcfail.MinedClassifier
	if o.profile != "" {
		data, err := os.ReadFile(o.profile)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("read -mined-profile: %w", err)
		}
		p, err := hpcfail.DecodeMinedProfile(data)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("decode -mined-profile: %w", err)
		}
		mc = hpcfail.NewMinedMatcher(p)
	}
	store, rep, err := hpcfail.LoadLogsReportMined(o.logs, st, mc)
	if err != nil {
		return nil, nil, nil, err
	}
	return store, rep, hpcfail.Diagnose(store), nil
}

// mineCorpus clusters everything the load could not classify — the full
// quarantine stream of every file plus records no static pattern
// matched — and returns the miner for rendering.
func mineCorpus(store *hpcfail.Store, rep *hpcfail.IngestReport) *hpcfail.TemplateMiner {
	m := hpcfail.NewMiner(hpcfail.MinerConfig{})
	for i := range rep.Streams {
		rep.Streams[i].EachQuarantined(m.Ingest)
	}
	for _, r := range store.All() {
		if r.Category == "unclassified" && r.Msg != "" {
			m.Ingest(r.Msg)
		}
	}
	return m
}

// resumeHint is the guidance printed after an interrupted load.
func resumeHint(o options) string {
	if o.wal != "" {
		return "progress checkpointed; rerun with -resume to continue from the journal"
	}
	return "no -wal journal was set; a rerun starts from scratch"
}

// runJSON emits machine-readable diagnoses, one JSON object per line.
func runJSON(ctx context.Context, o options, stdout, stderr io.Writer) error {
	st := topology.SchedulerSlurm
	if o.sched == "torque" {
		st = topology.SchedulerTorque
	}
	_, rep, res, err := load(ctx, o, st)
	if err != nil {
		render.Interrupted(stderr, err, rep, resumeHint(o))
		return err
	}
	render.Warnings(stderr, rep.Warnings(), 0)
	if err := render.DiagnoseJSON(stdout, res); err != nil {
		return err
	}
	return heapProfile(o.memprofile, rep, res)
}

// heapProfile writes the -memprofile with everything in live still
// reachable, so inuse_space answers "what holds the memory" for the
// loaded corpus rather than for a process about to exit.
func heapProfile(path string, live ...any) error {
	err := prof.WriteHeap(path)
	runtime.KeepAlive(live)
	return err
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	var st topology.SchedulerType
	switch o.sched {
	case "slurm":
		st = topology.SchedulerSlurm
	case "torque":
		st = topology.SchedulerTorque
	default:
		return fmt.Errorf("unknown scheduler %q (want slurm or torque)", o.sched)
	}
	store, rep, res, err := load(ctx, o, st)
	if err != nil {
		render.Interrupted(stderr, err, rep, resumeHint(o))
		return err
	}
	render.Warnings(stderr, rep.Warnings(), 5)
	if err := render.Diagnose(stdout, o.logs, store, rep, res, o.full); err != nil {
		return err
	}
	if o.mine {
		m := mineCorpus(store, rep)
		views, _ := m.TemplatesSince(0, 0)
		render.MinedTemplates(stdout, m.Stats(), views)
	}
	return heapProfile(o.memprofile, store, rep, res)
}
