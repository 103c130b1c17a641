// Command serve runs the online diagnosis service: a long-running HTTP
// server that owns a live log corpus and a streaming watcher.
//
//	serve -logs ./logs -addr :8080
//
// Endpoints:
//
//	POST /v1/ingest     batched raw log lines ({"batches":[{"stream":"console","lines":[...]}]})
//	GET  /v1/diagnose   diagnosis over the corpus so far; byte-identical
//	                    to cmd/diagnose output. Query params: node, from,
//	                    to (RFC3339), window (Go duration), format=json,
//	                    full=true
//	GET  /v1/alarms     SSE stream of watcher alarms and confirmed failures
//	GET  /v1/wal        NDJSON replication stream (?after=<watermark>);
//	                    requires -repl-wal
//	POST /v1/promote    mint the next fencing epoch and accept writes
//	GET  /v1/remediations  remediation ticket ledger (?since=<id>); POST
//	                    {"kill":true|false} toggles the global kill switch
//	GET  /v1/templates  live mined-template table (?since=<seq>, ?limit=N)
//	                    or, with ?format=profile, the canonical bootstrap
//	                    profile; requires -mine
//	GET  /healthz       liveness (503 while draining)
//	GET  /metrics       Prometheus text exposition
//	     /debug/pprof   the usual suspects
//
// Replication: -repl-wal journals every accepted ingest before it
// commits, so a restart replays exactly the acknowledged history, and
// /v1/wal streams it to replicas. -replica-of boots this node as a read
// replica of a primary (a base URL to stream /v1/wal from, or the
// primary's WAL directory to tail on a shared filesystem): ingest is
// answered 421 toward -primary-url, while /v1/diagnose serves the
// replicated corpus — ?min_watermark=W blocks up to -max-wait for
// replication to catch up, then 412s toward the primary. Killing the
// primary and POSTing /v1/promote (or -auto-promote confirming stream
// silence with a failed /healthz probe of the primary) mints the next
// fencing epoch: the replica starts accepting
// writes, and anything the deposed primary still produces is fenced
// off every node that saw the promotion.
//
// -remedy closes the loop: watcher detections and alarms feed an SOP
// remediation engine (admindown, drain + requeue, suspect, warm swap,
// notify) acting on an in-process simulated cluster, with idempotency
// pre-checks, safety guards and an append-only ticket ledger.
//
// -logs bootstraps the corpus from a directory (loaded exactly like
// cmd/diagnose does); the bootstrap is applied to the incremental
// diagnosis engine and fully diagnosed before serving starts, so
// startup pays the whole pipeline once and the first query is already
// memoized. Each ingest queues a
// delta that the first query at the new watermark folds in at cost
// proportional to the batch — post-ingest latency does not re-pay the
// corpus (staleness and apply duration are visible on /healthz and
// /metrics). Identical concurrent queries are coalesced, responses are
// cached until the next ingest bumps the watermark, and load beyond
// -max-inflight is shed with 429 + Retry-After. On SIGINT/SIGTERM the
// server drains in-flight
// requests and persists the watcher state to -checkpoint; a restart
// with -resume restores it, so alarm suppression and refractory merges
// survive restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hpcfail"
	"hpcfail/internal/render"
	"hpcfail/internal/replica"
	"hpcfail/internal/topology"
	"hpcfail/internal/version"
)

type options struct {
	addr         string
	logs         string
	sched        string
	resume       bool
	checkpoint   string
	cacheEntries int
	maxInflight  int
	drainTimeout time.Duration
	remedy       bool
	mine         bool
	mineMax      int

	replWAL        string
	replSync       bool
	ingestGroupMax int
	replicaOf      string
	primaryURL     string
	promote        bool
	autoPromote    time.Duration
	heartbeat      time.Duration
	maxWait        time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.logs, "logs", "", "bootstrap log directory (empty = start with an empty corpus)")
	flag.StringVar(&o.sched, "scheduler", "slurm", "scheduler dialect: slurm or torque")
	flag.BoolVar(&o.resume, "resume", false, "resume: restore the -checkpoint watcher state")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "watcher snapshot file, written on shutdown")
	flag.IntVar(&o.cacheEntries, "cache", 256, "rendered-response cache entries")
	flag.IntVar(&o.maxInflight, "max-inflight", 64, "concurrently served requests before shedding with 429")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "shutdown grace for in-flight requests")
	flag.BoolVar(&o.remedy, "remedy", false, "enable the closed-loop remediation engine (/v1/remediations)")
	flag.BoolVar(&o.mine, "mine", false, "mine templates from quarantined/unclassified lines (/v1/templates, candidate SSE events)")
	flag.IntVar(&o.mineMax, "mine-max-templates", 0, "miner memory budget in live templates (0 = default)")
	flag.StringVar(&o.replWAL, "repl-wal", "", "replication WAL directory (journals ingests, serves /v1/wal, replays on restart)")
	flag.BoolVar(&o.replSync, "repl-sync", false, "fsync the replication WAL on every entry")
	flag.IntVar(&o.ingestGroupMax, "ingest-group-max", 0, "max writes one group commit's fsync may cover (0 = unbounded); lower caps ack-latency spread under bursts at the cost of more fsyncs")
	flag.StringVar(&o.replicaOf, "replica-of", "", "run as a read replica of this primary (base URL, or its WAL directory)")
	flag.StringVar(&o.primaryURL, "primary-url", "", "primary advertised on 421/412 responses (defaults to -replica-of when it is a URL)")
	flag.BoolVar(&o.promote, "promote", false, "boot promoted: replay -repl-wal, mint the next epoch, accept writes")
	flag.DurationVar(&o.autoPromote, "auto-promote", 0, "self-promote after the primary has been silent this long AND fails a /healthz probe (0 = never)")
	flag.DurationVar(&o.heartbeat, "heartbeat", 15*time.Second, "SSE and /v1/wal heartbeat interval")
	flag.DurationVar(&o.maxWait, "max-wait", 2*time.Second, "min_watermark wait budget before 412")
	showVer := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *showVer {
		version.Print(os.Stdout, "serve")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// primaryAlive affirmatively probes the primary's /healthz. Any HTTP
// response — even a 503 while it drains — means a live primary process
// that may still be acking writes, so self-promotion must not proceed;
// only a transport error (refused, timeout, unroutable) counts as down.
func primaryAlive(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return true
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

	primaryURL := o.primaryURL
	if primaryURL == "" && strings.HasPrefix(o.replicaOf, "http") {
		primaryURL = o.replicaOf
	}
	srv := hpcfail.NewServer(hpcfail.ServeConfig{
		Scheduler:        st,
		MaxInflight:      o.maxInflight,
		CacheEntries:     o.cacheEntries,
		CheckpointPath:   o.checkpoint,
		EnableRemedy:     o.remedy,
		EnableMiner:      o.mine,
		Miner:            hpcfail.MinerConfig{MaxTemplates: o.mineMax},
		ReplicationDir:   o.replWAL,
		ReplicationSync:  o.replSync,
		IngestGroupMax:   o.ingestGroupMax,
		PrimaryURL:       primaryURL,
		MaxWatermarkWait: o.maxWait,
		SSEHeartbeat:     o.heartbeat,
	})

	if o.logs != "" {
		store, rep, err := hpcfail.LoadLogsReport(o.logs, st)
		if err != nil {
			return err
		}
		render.Warnings(stderr, rep.Warnings(), 5)
		srv.Seed(store, rep)
		fmt.Fprintf(stdout, "bootstrapped %d records from %s\n", store.Len(), o.logs)
	}
	if o.resume && o.checkpoint != "" {
		restored, err := srv.RestoreCheckpoint(o.checkpoint)
		if err != nil {
			return fmt.Errorf("restore -checkpoint: %w", err)
		}
		if restored {
			fmt.Fprintf(stdout, "restored watcher checkpoint from %s\n", o.checkpoint)
		}
	}

	// Replication: replay the local journal (crash recovery), then take
	// the configured role.
	if err := srv.OpenReplicationLog(); err != nil {
		return fmt.Errorf("open -repl-wal: %w", err)
	}
	defer srv.CloseReplication()
	if o.replWAL != "" {
		fmt.Fprintf(stdout, "replication journal %s replayed to watermark %d (epoch %d)\n",
			o.replWAL, srv.Watermark(), srv.Epoch())
	}
	if o.promote {
		epoch, wm, err := srv.Promote()
		if err != nil {
			return fmt.Errorf("promote at boot: %w", err)
		}
		fmt.Fprintf(stdout, "promoted: serving as primary at epoch %d, watermark %d\n", epoch, wm)
	}

	tailCtx, stopTailing := context.WithCancel(ctx)
	defer stopTailing()
	if o.replicaOf != "" && !o.promote {
		srv.SetReadOnly(true)
		tailer := replica.NewTailer(replica.Config{
			Primary:       o.replicaOf,
			After:         srv.Watermark(),
			Epoch:         srv.Epoch(),
			SeedWatermark: srv.SeedWatermark(),
		}, srv.Apply)
		srv.SetReplicaStatus(tailer.Status)
		go func() {
			if err := tailer.Run(tailCtx); err != nil {
				fmt.Fprintln(stderr, "replication stopped:", err)
			}
		}()
		if o.autoPromote > 0 {
			healthURL := ""
			if strings.HasPrefix(o.replicaOf, "http") {
				healthURL = strings.TrimSuffix(o.replicaOf, "/") + "/healthz"
			} else if primaryURL != "" {
				healthURL = strings.TrimSuffix(primaryURL, "/") + "/healthz"
			}
			go func() {
				probe := &http.Client{Timeout: 2 * time.Second}
				tick := time.NewTicker(o.autoPromote / 4)
				defer tick.Stop()
				for {
					select {
					case <-tailCtx.Done():
						return
					case <-tick.C:
					}
					st := tailer.Status()
					if st.Err != nil {
						// The tailer stopped fatally (seed mismatch, gap, apply
						// error). That is replication divergence, not primary
						// death — the primary may be alive and acking writes, so
						// promoting here would split the brain. Operator problem.
						fmt.Fprintln(stderr, "auto-promote disabled: replication diverged, re-seed or promote manually:", st.Err)
						return
					}
					if time.Since(st.LastContact) <= o.autoPromote {
						continue
					}
					if healthURL != "" && primaryAlive(probe, healthURL) {
						// Our stream is silent but the primary answers /healthz:
						// a replication-path failure, not a dead primary. Keep
						// tailing (and retrying) rather than forking history.
						fmt.Fprintf(stderr, "primary silent for %s on the replication stream but %s still responds; not promoting\n",
							o.autoPromote, healthURL)
						continue
					}
					stopTailing()
					epoch, wm, err := srv.Promote()
					if err != nil {
						fmt.Fprintln(stderr, "auto-promote failed:", err)
						return
					}
					fmt.Fprintf(stdout, "primary silent for %s and unreachable; auto-promoted to epoch %d at watermark %d\n",
						o.autoPromote, epoch, wm)
					return
				}
			}()
		}
		fmt.Fprintf(stdout, "replica of %s (watermark %d, epoch %d)\n", o.replicaOf, srv.Watermark(), srv.Epoch())
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stdout, "serving on %s (watermark %d, %d records)\n", o.addr, srv.Watermark(), srv.Records())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // bind failure etc.; ListenAndServe never returns nil
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting, terminate alarm streams, give
	// in-flight requests the grace window, then checkpoint the watcher.
	fmt.Fprintln(stdout, "shutdown requested; draining")
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "warning: drain incomplete:", err)
	}
	if err := srv.Checkpoint(); err != nil {
		return fmt.Errorf("write shutdown checkpoint: %w", err)
	}
	if o.checkpoint != "" {
		fmt.Fprintf(stdout, "watcher checkpoint written to %s\n", o.checkpoint)
	}
	fmt.Fprintln(stdout, "drained; bye")
	return nil
}
