// Package server is the online diagnosis service: a long-running HTTP
// front end that owns a live log corpus and a streaming core.Watcher.
// It accepts batched log lines (POST /v1/ingest), answers diagnosis
// queries over the corpus so far (GET /v1/diagnose) with the exact
// bytes cmd/diagnose would print, streams watcher alarms over SSE
// (GET /v1/alarms), and exposes health, Prometheus metrics and pprof.
//
// Scale mechanics, in one place:
//
//   - Ingest watermark. Every accepted batch bumps a monotonic
//     watermark. Query results are computed against an immutable
//     snapshot taken at a watermark, and every cache key embeds the
//     watermark it was rendered at — so ingest invalidates the cache
//     by construction, without tracking or purging entries.
//   - Incremental engine. The server owns one core.Engine holding the
//     live pipeline state. Ingested batches queue as pending deltas;
//     the first query after an ingest applies them in cost proportional
//     to the pending records — not the corpus — and snapshots the
//     engine, whose output is byte-identical to a from-scratch rebuild
//     (proven by the repo-root differential harness). The full-corpus
//     re-index + re-diagnose this replaced was the post-ingest p95.
//   - Singleflight. The expensive steps (applying pending deltas,
//     rendering a response) are coalesced: concurrent identical queries
//     share one computation, detached from any single request, so one
//     impatient client cannot cancel work others are waiting on.
//   - Admission control. A semaphore bounds concurrently served
//     ingest/diagnose requests; overflow is shed immediately with 429
//     and a Retry-After hint rather than queueing without bound.
//   - Graceful drain. BeginDrain flips health to 503, rejects new
//     work and terminates SSE streams; after http.Server.Shutdown has
//     drained in-flight requests, Checkpoint persists the watcher via
//     the snapshot machinery so a restart resumes alarm state.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/miner"
	"hpcfail/internal/remedy"
	"hpcfail/internal/replica"
	"hpcfail/internal/topology"
	"hpcfail/internal/wal"
)

// Config tunes the service. The zero value is usable; unset fields take
// the defaults documented per field.
type Config struct {
	// Scheduler selects the log dialect for ingested batches.
	Scheduler topology.SchedulerType
	// Pipeline configures the diagnosis windows (zero value =
	// core.DefaultConfig()).
	Pipeline core.Config
	// MaxInflight bounds concurrently served ingest/diagnose requests;
	// excess requests are shed with 429 (default 64).
	MaxInflight int
	// QueryTimeout bounds one diagnosis computation (default 30s). The
	// incremental engine applies pending ingest deltas in cost
	// proportional to the delta, not the corpus, and an apply is not
	// cancellable — the timeout is retained as configuration surface and
	// as the bound a from-scratch rebuild path would use.
	QueryTimeout time.Duration
	// CacheEntries bounds the rendered-response LRU (default 256).
	CacheEntries int
	// CheckpointPath, when set, is where Checkpoint persists the
	// watcher snapshot on shutdown.
	CheckpointPath string
	// AlarmBuffer is the per-SSE-subscriber event buffer; a subscriber
	// falling this far behind starts losing events (default 64).
	AlarmBuffer int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// EnableRemedy turns on the closed-loop remediation engine: watcher
	// detections and alarms are routed into SOP queues and executed
	// against RemedyCluster, with every decision ticketed and exposed on
	// /v1/remediations.
	EnableRemedy bool
	// Remedy tunes the remediation engine (zero value = remedy
	// defaults). Only read when EnableRemedy is set.
	Remedy remedy.Config
	// RemedyCluster is the actuator the SOPs execute against; nil
	// selects an in-process simulated cluster, which stands in for the
	// real cluster-management plane.
	RemedyCluster remedy.Cluster
	// ReplicationDir, when set, enables the replication WAL: every
	// accepted ingest is journaled there before it commits, restarts
	// replay it, and GET /v1/wal streams it to replicas.
	ReplicationDir string
	// ReplicationSync fsyncs the WAL on every journaled entry. Off by
	// default: the tests and benchmarks pick their own durability.
	ReplicationSync bool
	// ReplicationSegmentBytes rotates WAL segments (0 = wal default).
	ReplicationSegmentBytes int64
	// Epoch is the starting fencing epoch (default 1). Replayed and
	// replicated entries can only raise it; Promote mints the next one.
	Epoch uint64
	// PrimaryURL is the primary this node defers to, advertised in the
	// X-Hpcfail-Primary header on 421 (replica ingest) and 412
	// (min_watermark timeout) responses.
	PrimaryURL string
	// MaxWatermarkWait bounds how long a min_watermark read blocks for
	// replication to catch up before 412 (default 2s).
	MaxWatermarkWait time.Duration
	// IngestGroupMax bounds how many staged writes one group commit may
	// cover (0 = unbounded). Group commit amortizes one fsync over every
	// write staged while the previous group was syncing; the bound caps
	// ack-latency spread under extreme bursts at the cost of more
	// fsyncs.
	IngestGroupMax int
	// SSEHeartbeat is the comment-ping cadence on /v1/alarms and the
	// heartbeat-frame cadence on /v1/wal (default 15s).
	SSEHeartbeat time.Duration
	// EnableMiner turns on online template mining over the quarantine
	// stream: every quarantined or unclassified ingested line feeds an
	// internal/miner engine, GET /v1/templates serves the live template
	// table (and exports a bootstrap profile), miner series appear on
	// /metrics, and promoted templates surface as "candidate" events on
	// the alarm stream. Off by default; disabled ingest pays one nil
	// check. Mining never touches the classification of lines the
	// static formats accept — /v1/diagnose stays byte-identical.
	EnableMiner bool
	// Miner tunes the mining engine (zero value = miner defaults).
	// Only read when EnableMiner is set.
	Miner miner.Config
}

func (c Config) withDefaults() Config {
	if c.Pipeline == (core.Config{}) {
		c.Pipeline = core.DefaultConfig()
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.AlarmBuffer <= 0 {
		c.AlarmBuffer = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.MaxWatermarkWait <= 0 {
		c.MaxWatermarkWait = 2 * time.Second
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	return c
}

// Server owns the live corpus and watcher. Create with New, optionally
// Seed a bootstrap corpus, serve Handler, then BeginDrain + Checkpoint
// on the way down.
type Server struct {
	cfg     Config
	metrics *metrics
	broker  *broker
	watcher *core.Watcher
	// miner is the online template miner (nil when disabled). It owns
	// its own mutex; ingest feeds it after commit, off every lock here.
	miner *miner.Miner

	// sem is the admission semaphore; holding a slot means the request
	// is being served.
	sem chan struct{}

	// mu guards the live corpus state: the pending (ingested but not
	// yet applied) record deltas, the total record count, the
	// aggregated ingest ledger, and the seed watermark. Only the commit
	// leader and the snapshot applier take it — no read handler does.
	mu       sync.Mutex
	pending  []events.Record
	recCount int
	rep      *logstore.IngestReport
	seedWM   uint64

	// watermark versions the corpus. Stores happen under mu (so an
	// applier drains a consistent pending/watermark pair); loads are
	// lock-free — the watermark is the single hottest read in the
	// service (every query, waiter, heartbeat and scrape) and must
	// never queue behind the write path.
	watermark atomic.Uint64

	// epoch is the fencing epoch: written under stageMu (New/Seed
	// setup, Promote, stage-time adoption of a newer epoch), loaded
	// lock-free.
	epoch atomic.Uint64

	// snapMu guards the memoized snapshot — its own lock, so queries
	// checking the memo never contend with the ingest path.
	snapMu sync.Mutex
	snap   *snapshot

	// Group-commit staging (see groupcommit.go). stageMu is the short
	// lock: the staged-write queue, the last staged watermark, the
	// journal handle and the fail-stop latch — held for pointer pushes
	// and integer assignments, never across I/O. commitSem is the
	// leader slot, a one-slot semaphore held across one group's
	// append+fsync+commit. It is a channel, not a mutex, so a staged
	// writer can select between "my group committed" and "I am the
	// leader now" — a writer whose ack arrives while it waits leaves
	// immediately instead of queuing for a lock it no longer needs.
	// payloads is the leader's reusable AppendBatch argument scratch.
	stageMu sync.Mutex
	stageQ  []*staged
	stageWM uint64
	repl    *wal.Log
	// replBroken latches after a journal Append/Sync failure: the WAL
	// tail is unverified, so the writer role is fail-stopped (every
	// later journal write refused) until a restart re-opens the log.
	replBroken bool

	commitSem chan struct{}
	payloads  [][]byte
	// testSyncHook, when set (tests only, before serving), replaces the
	// leader's group Sync call to inject failures and stalls.
	testSyncHook func() error

	// wmMu guards the broadcast channel closed-and-replaced on every
	// watermark advance so min_watermark waiters and /v1/wal streamers
	// wake without polling.
	wmMu sync.Mutex
	wmCh chan struct{}

	// eng is the incremental diagnosis pipeline holding the live corpus
	// and per-detection state; engMu serialises ApplyBatch/Snapshot (the
	// engine is single-writer) and orders pending-drain against snapshot
	// memoization.
	eng   *core.Engine
	engMu sync.Mutex

	// cloneCalls counts ingest-ledger deep copies. Cloning is per
	// applied delta, never per query — the clone-count regression test
	// pins that down.
	cloneCalls atomic.Uint64

	// sf coalesces snapshot builds and response renders.
	sf flightGroup

	cache *lruCache

	// remedy is the closed-loop remediation engine (nil when disabled).
	// remedyMu serializes the ticket-to-counter accounting; remedyLast
	// is the highest ticket id already counted into the metrics.
	remedy     *remedy.Engine
	remedyMu   sync.Mutex
	remedyLast int64

	draining       atomic.Bool
	lastIngestWall atomic.Int64 // unix nanos of the last accepted batch
	started        time.Time

	// readOnly marks replica mode: HTTP ingest answers 421, entries
	// arrive through Apply instead. Promote clears it.
	readOnly atomic.Bool
	// replicaStatus reads the tailer's health for degraded headers,
	// /healthz and /metrics (nil on a primary). Set before serving.
	replicaStatus func() replica.Status
}

// snapshot is an immutable view of the corpus at one watermark: the
// indexed store, a stable copy of the ingest ledger, and the diagnosis
// result. Queries and cache keys are defined entirely in terms of it.
type snapshot struct {
	watermark uint64
	store     *logstore.Store
	rep       *logstore.IngestReport
	res       *core.Result
}

// detectionEvent and alarmEvent are the SSE payload shapes.
type detectionEvent struct {
	Time     time.Time `json:"time"`
	Node     string    `json:"node"`
	Terminal string    `json:"terminal"`
	JobID    int64     `json:"job_id,omitempty"`
}

type alarmEvent struct {
	Time        time.Time `json:"time"`
	Node        string    `json:"node"`
	HasExternal bool      `json:"has_external"`
}

// candidateEvent is the SSE payload for a promoted mined signature —
// the low-confidence detection kind. No node, no time: quarantined
// lines have neither until someone profiles them.
type candidateEvent struct {
	Signature string `json:"signature"`
	Template  string `json:"template"`
	Count     uint64 `json:"count"`
	Example   string `json:"example,omitempty"`
	Burst     bool   `json:"burst,omitempty"`
}

// New constructs a server with an empty corpus.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		sem:       make(chan struct{}, cfg.MaxInflight),
		rep:       &logstore.IngestReport{},
		eng:       core.NewEngine(cfg.Pipeline),
		cache:     newLRU(cfg.CacheEntries),
		started:   time.Now(),
		wmCh:      make(chan struct{}),
		commitSem: make(chan struct{}, 1),
	}
	s.epoch.Store(cfg.Epoch)
	s.broker = newBroker(func() { s.metrics.add(mSSEDropped, 1) })
	if cfg.EnableRemedy {
		cluster := cfg.RemedyCluster
		if cluster == nil {
			cluster = remedy.NewSimCluster(nil, remedy.SimOptions{})
		}
		s.remedy = remedy.New(cluster, remedy.DefaultSOPs(cluster), cfg.Remedy)
	}
	s.watcher = core.NewWatcher(cfg.Pipeline, func(d core.Detection) {
		s.metrics.add(mDetections, 1)
		s.broker.publish("failure", detectionEvent{
			Time: d.Time, Node: d.Node.String(), Terminal: d.Terminal, JobID: d.JobID,
		})
		if s.remedy != nil {
			s.remedy.Submit(remedy.ConditionFromDetection(d))
			s.remedy.Service(d.Time)
			s.countRemedyTickets()
		}
	})
	s.watcher.OnAlarm = func(a core.Alarm) {
		s.metrics.add(mAlarms, 1)
		s.broker.publish("alarm", alarmEvent{Time: a.Time, Node: a.Node.String(), HasExternal: a.HasExternal})
		if s.remedy != nil {
			s.remedy.Submit(remedy.ConditionFromAlarm(a))
			s.remedy.Service(a.Time)
			s.countRemedyTickets()
		}
	}
	if cfg.EnableMiner {
		s.watcher.OnCandidate = func(c core.Candidate) {
			s.metrics.add(mCandidates, 1)
			s.broker.publish("candidate", candidateEvent{
				Signature: c.Signature, Template: c.Template, Count: c.Count,
				Example: c.Example, Burst: c.Burst,
			})
		}
		s.miner = miner.New(cfg.Miner)
		s.miner.OnPromote = func(c miner.Candidate) {
			// Promotion fires inside a miner Ingest (miner mutex held);
			// NoteCandidate takes only the watcher mutex, which is never
			// held while feeding the miner — no ordering cycle.
			s.metrics.add(mMinerPromoted, 1)
			s.watcher.NoteCandidate(core.Candidate{
				Signature: c.Category, Template: c.Template, Count: c.Count,
				Example: c.Example, Burst: c.Burst,
			})
		}
	}
	return s
}

// Miner exposes the template miner (nil when disabled).
func (s *Server) Miner() *miner.Miner { return s.miner }

// mine feeds one parsed batch's unmatched material to the miner: the
// full quarantine stream of each stream report, plus internal lines
// that parsed but no static pattern classified. No-op (one nil check)
// when mining is disabled.
func (s *Server) mine(all []events.Record, sreps []logparse.StreamReport) {
	if s.miner == nil {
		return
	}
	lines := uint64(0)
	for i := range sreps {
		sreps[i].EachQuarantined(func(l string) {
			s.miner.Ingest(l)
			lines++
		})
	}
	for i := range all {
		if all[i].Category == "unclassified" && all[i].Msg != "" {
			s.miner.Ingest(all[i].Msg)
			lines++
		}
	}
	if lines > 0 {
		s.metrics.add(mMinerLines, lines)
	}
}

// Remedy exposes the remediation engine (nil when disabled).
func (s *Server) Remedy() *remedy.Engine { return s.remedy }

// countRemedyTickets folds tickets minted since the last count into the
// Prometheus counters, so /metrics tracks the ledger without re-walking
// it on every scrape.
func (s *Server) countRemedyTickets() {
	s.remedyMu.Lock()
	defer s.remedyMu.Unlock()
	for _, tk := range s.remedy.Tickets(s.remedyLast) {
		switch tk.Decision {
		case remedy.DecisionExecuted:
			s.metrics.add(mRemedyExecuted, 1)
		case remedy.DecisionRefused:
			s.metrics.add(mRemedyRefused, 1)
		case remedy.DecisionFailed:
			s.metrics.add(mRemedyFailed, 1)
		}
		s.metrics.add(mRemedyRequeues, uint64(len(tk.Requeued)))
		s.remedyLast = tk.ID
	}
}

// Watcher exposes the live watcher (for checkpoint restore before
// serving starts; do not mutate once the handler is live).
func (s *Server) Watcher() *core.Watcher { return s.watcher }

// Seed installs a bootstrap corpus — typically logstore.LoadDirReport
// output — as watermark 1, replaying it through the watcher so online
// state (refractory gaps, apid resolution, burst windows) continues
// from the end of the bootstrap rather than from nothing. The engine
// adopts the store's indexes (core.Engine.Seed) instead of indexing the
// corpus a second time, and diagnoses it eagerly, so the startup cost
// covers the whole pipeline and the first query serves a memoized
// snapshot — byte-identical to what the CLI prints over the same
// directory. The store stays the caller's and is not modified. Call
// before serving; Seed is not synchronised against live handlers.
func (s *Server) Seed(store *logstore.Store, rep *logstore.IngestReport) {
	recs := store.All()

	s.engMu.Lock()
	start := time.Now()
	s.eng.Seed(store)
	res := s.eng.Snapshot(rep.LostChunks())
	s.metrics.observeApply(time.Since(start), s.eng.LastApply())
	s.engMu.Unlock()

	s.mu.Lock()
	s.recCount = len(recs)
	s.rep = s.cloneRep(rep)
	s.seedWM = 1
	s.watermark.Store(1)
	s.mu.Unlock()
	s.snapMu.Lock()
	s.snap = &snapshot{watermark: 1, store: res.Store, rep: s.cloneRep(rep), res: res}
	s.snapMu.Unlock()
	s.stageMu.Lock()
	s.stageWM = 1
	s.stageMu.Unlock()
	s.bump()
	s.watcher.FeedAll(recs)
	s.mine(recs, rep.Streams)
}

// Ingest parses and appends one request's batches: records enter the
// corpus (visible to the next snapshot), the watcher consumes them in
// arrival order, the ingest ledger accumulates the parse accounting,
// and the watermark advances once for the whole request. The write is
// staged and group-committed (see groupcommit.go): with replication
// enabled it is journaled — one Sync covering the whole group — and
// made durable *before* any state changes, so an acknowledged
// watermark is always durable; a journal failure (ErrJournal) leaves
// the watermark untouched and fail-stops the writer role until a
// restart re-opens (re-scans and truncates) the log. Concurrent
// Ingest calls are safe and are exactly what amortizes the fsync.
func (s *Server) Ingest(batches []IngestBatch) (IngestResult, error) {
	var all []events.Record
	var sreps []logparse.StreamReport
	quarantined := 0
	for _, b := range batches {
		stream, err := events.ParseStream(b.Stream)
		if err != nil {
			return IngestResult{}, fmt.Errorf("batch stream %q: %w", b.Stream, err)
		}
		recs, srep := logparse.ParseLinesReport(stream, s.cfg.Scheduler, b.Lines)
		all = append(all, recs...)
		sreps = append(sreps, srep)
		quarantined += srep.Quarantined
	}

	st, err := s.stageIngest(batches, all, sreps, quarantined)
	if err != nil {
		return IngestResult{}, err
	}
	if err := s.commitStaged(st); err != nil {
		return IngestResult{}, err
	}
	// Feed the watcher on this goroutine, not the commit leader's: the
	// watcher serializes on its own mutex and its reorder buffer absorbs
	// interleaving between concurrent ingesters, exactly as it did when
	// the serialized path fed outside the server lock.
	s.watcher.FeedAll(all)
	s.mine(all, sreps)
	return IngestResult{Accepted: len(all), Quarantined: quarantined, Watermark: st.e.Watermark}, nil
}

// IngestBatch is one stream's worth of raw log lines. It is the
// replication entry's batch type verbatim: what the client sent is what
// the WAL journals and what replicas re-parse.
type IngestBatch = replica.Batch

// IngestResult accounts one accepted ingest request.
type IngestResult struct {
	Accepted    int    `json:"accepted"`
	Quarantined int    `json:"quarantined"`
	Watermark   uint64 `json:"watermark"`
}

// snapshotNow returns a snapshot at (at least) the current watermark,
// advancing the incremental engine through the pending ingest deltas at
// most once per watermark: the apply runs under singleflight, so
// concurrent queries after an ingest share one delta application — in
// cost proportional to the pending records, not the corpus — and no
// client's cancellation aborts it for the rest.
func (s *Server) snapshotNow() (*snapshot, error) {
	wm := s.watermark.Load()
	s.snapMu.Lock()
	memo := s.snap
	s.snapMu.Unlock()

	if memo != nil && memo.watermark == wm && memo.res != nil {
		return memo, nil
	}

	v, err, _ := s.sf.Do(fmt.Sprintf("snap@%d", wm), func() (any, error) {
		return s.applyPending(wm), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*snapshot), nil
}

// applyPending drains the pending ingest deltas into the engine and
// memoizes the fresh snapshot. engMu serialises engine access and makes
// drain→apply→memoize atomic with respect to other appliers; ingests
// landing mid-apply stay pending and are picked up by the next query at
// their (higher) watermark.
func (s *Server) applyPending(wm uint64) *snapshot {
	s.engMu.Lock()
	defer s.engMu.Unlock()

	s.snapMu.Lock()
	if memo := s.snap; memo != nil && memo.watermark >= wm && memo.res != nil {
		// A concurrent applier already covered this watermark (or a later
		// one — serving fresher than asked is fine, the cache keys on the
		// snapshot's own watermark).
		s.snapMu.Unlock()
		return memo
	}
	s.snapMu.Unlock()

	s.mu.Lock()
	delta := s.pending
	s.pending = nil
	// Loaded under mu, where the commit leader stores it: the watermark
	// cannot run ahead of the drained pending deltas.
	curWM := s.watermark.Load()
	rep := s.cloneRep(s.rep)
	s.mu.Unlock()

	start := time.Now()
	s.eng.ApplyBatch(delta)
	res := s.eng.Snapshot(rep.LostChunks())
	s.metrics.observeApply(time.Since(start), s.eng.LastApply())

	snap := &snapshot{watermark: curWM, store: res.Store, rep: rep, res: res}
	s.snapMu.Lock()
	if s.snap == nil || s.snap.watermark <= curWM {
		s.snap = snap
	}
	s.snapMu.Unlock()
	return snap
}

// BeginDrain moves the server into draining: health flips to 503, new
// guarded requests are rejected, and SSE streams are terminated so
// http.Server.Shutdown can complete. Safe to call more than once.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.broker.close()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// RestoreCheckpoint loads a watcher snapshot saved by Checkpoint into
// the live watcher, reporting whether one existed. Call before serving.
func (s *Server) RestoreCheckpoint(path string) (bool, error) {
	return core.LoadSnapshotFile(path, s.watcher)
}

// Checkpoint persists the watcher snapshot to Config.CheckpointPath
// (a no-op when unset). Call after the HTTP server has drained so no
// feeder is racing the save.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	return core.SaveSnapshotFile(s.cfg.CheckpointPath, s.watcher)
}

// Watermark returns the current ingest watermark.
func (s *Server) Watermark() uint64 {
	return s.watermark.Load()
}

// Records returns the live record count (applied plus pending).
func (s *Server) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recCount
}

// DiagnosedWatermark returns the watermark of the memoized snapshot —
// the freshest watermark a query can be answered at without applying
// pending deltas. Zero when nothing has been diagnosed yet.
func (s *Server) DiagnosedWatermark() uint64 {
	_, d := s.Staleness()
	return d
}

// Staleness returns the ingest watermark and the diagnosed watermark in
// one consistent read, so wm >= diagnosed always holds and their
// difference — watermarks ingested but not yet applied — can't
// underflow.
func (s *Server) Staleness() (wm, diagnosed uint64) {
	// Read the memo before the watermark: the memo can only lag, so
	// reading it first keeps wm >= diagnosed even against a concurrent
	// applier publishing a fresher snapshot.
	s.snapMu.Lock()
	if s.snap != nil && s.snap.res != nil {
		diagnosed = s.snap.watermark
	}
	s.snapMu.Unlock()
	wm = s.watermark.Load()
	return wm, diagnosed
}

// cloneRep counts and performs one ingest-ledger deep copy. All clones
// go through here so the regression test can assert cloning happens per
// applied delta, not per query.
func (s *Server) cloneRep(r *logstore.IngestReport) *logstore.IngestReport {
	s.cloneCalls.Add(1)
	return cloneReport(r)
}

// cloneReport deep-copies an ingest report so snapshot readers never
// share slices with the live ledger MergeStream keeps appending to.
func cloneReport(r *logstore.IngestReport) *logstore.IngestReport {
	if r == nil {
		return &logstore.IngestReport{}
	}
	cp := *r
	cp.Streams = make([]logparse.StreamReport, len(r.Streams))
	for i, srep := range r.Streams {
		cp.Streams[i] = srep
		cp.Streams[i].Samples = append([]string(nil), srep.Samples...)
		cp.Streams[i].Errs = append([]error(nil), srep.Errs...)
	}
	cp.Skipped = append([]logstore.FileWarning(nil), r.Skipped...)
	cp.Missing = append([]string(nil), r.Missing...)
	cp.Poisoned = append([]logstore.PoisonChunk(nil), r.Poisoned...)
	cp.Tripped = append([]logstore.BreakerTrip(nil), r.Tripped...)
	return &cp
}

// filterResult narrows a snapshot's result to the query's node/time
// filters. With no filters the result is returned untouched — which is
// what makes the unfiltered response byte-identical to the CLI. The
// summaries (breakdowns, MTBF, lead times) are recomputed by the
// renderer over the filtered subset, which is the useful reading of a
// scoped query.
func filterResult(res *core.Result, node cname.Name, hasNode bool, from, to time.Time) *core.Result {
	if !hasNode && from.IsZero() && to.IsZero() {
		return res
	}
	out := *res
	out.Detections = nil
	out.Diagnoses = nil
	for i, d := range res.Diagnoses {
		det := d.Detection
		if hasNode && det.Node != node {
			continue
		}
		if !from.IsZero() && det.Time.Before(from) {
			continue
		}
		if !to.IsZero() && det.Time.After(to) {
			continue
		}
		out.Detections = append(out.Detections, res.Detections[i])
		out.Diagnoses = append(out.Diagnoses, d)
	}
	return &out
}
