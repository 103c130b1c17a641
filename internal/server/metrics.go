package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hpcfail/internal/core"
)

// metrics is a hand-rolled Prometheus text-format registry — counters,
// per-handler request/latency series, and scrape-time gauges — kept
// dependency-free like the rest of the module. All series share one
// mutex; the handlers touch it once or twice per request, far below any
// contention that would justify sharding.
type metrics struct {
	mu       sync.Mutex
	counters map[string]uint64
	requests map[reqKey]uint64
	latency  map[string]*histogram
	apply    *histogram
	// journalSync times each group-commit fsync; groupSize counts how
	// many staged writes each fsync covered. Their ratio is the
	// amortization the group committer is buying.
	journalSync *histogram
	groupSize   *histogram
}

type reqKey struct {
	handler string
	code    int
}

// Counter names are full Prometheus series names; counterHelp below is
// the exposition help text and doubles as the registry of known series.
const (
	mCacheHits    = "hpcfail_cache_hits_total"
	mCacheMisses  = "hpcfail_cache_misses_total"
	mCoalesced    = "hpcfail_coalesced_queries_total"
	mShed         = "hpcfail_shed_requests_total"
	mIngestBatch  = "hpcfail_ingest_batches_total"
	mIngestRecs   = "hpcfail_ingest_records_total"
	mIngestQuar   = "hpcfail_ingest_quarantined_total"
	mDetections   = "hpcfail_detections_total"
	mAlarms       = "hpcfail_alarms_total"
	mSSEDropped   = "hpcfail_sse_dropped_events_total"
	mSSESubscribe = "hpcfail_sse_subscriptions_total"

	mRemedyExecuted = "hpcfail_remediation_executed_total"
	mRemedyRefused  = "hpcfail_remediation_refused_total"
	mRemedyFailed   = "hpcfail_remediation_failed_total"
	mRemedyRequeues = "hpcfail_remediation_requeued_jobs_total"

	mReplApplied  = "hpcfail_replication_applied_entries_total"
	mReplStreamed = "hpcfail_replication_streamed_entries_total"
	mReplFenced   = "hpcfail_replication_fenced_entries_total"

	mEngRediagnosed  = "hpcfail_engine_rediagnosed_total"
	mEngJobsRefolded = "hpcfail_engine_jobs_refolded_total"

	mMinerLines    = "hpcfail_miner_lines_mined_total"
	mMinerPromoted = "hpcfail_miner_promotions_total"
	mCandidates    = "hpcfail_candidates_total"
)

var counterHelp = map[string]string{
	mCacheHits:    "Diagnosis responses served from the result cache.",
	mCacheMisses:  "Diagnosis responses that had to be rendered.",
	mCoalesced:    "Diagnosis queries coalesced onto another identical in-flight query.",
	mShed:         "Requests rejected by admission control (HTTP 429).",
	mIngestBatch:  "Ingest batches accepted.",
	mIngestRecs:   "Log records parsed into the live store.",
	mIngestQuar:   "Ingested lines quarantined as unparseable.",
	mDetections:   "Confirmed node failures emitted by the watcher.",
	mAlarms:       "Early-warning alarms emitted by the watcher.",
	mSSEDropped:   "SSE events dropped because a subscriber was too slow.",
	mSSESubscribe: "SSE subscriptions accepted.",

	mRemedyExecuted: "Remediation SOPs executed to completion.",
	mRemedyRefused:  "Remediation decisions refused by idempotency or safety guards.",
	mRemedyFailed:   "Remediation SOPs that exhausted retries.",
	mRemedyRequeues: "Jobs requeued by drain SOPs.",

	mReplApplied:  "Replicated entries folded into this node's corpus.",
	mReplStreamed: "Entries sent to /v1/wal stream consumers.",
	mReplFenced:   "Entries rejected because their epoch was deposed.",

	mEngRediagnosed:  "Detections the incremental engine diagnosed again because a delta dirtied them.",
	mEngJobsRefolded: "Jobs whose scheduler records the incremental engine folded again.",

	mMinerLines:    "Quarantined or unclassified lines fed to the template miner.",
	mMinerPromoted: "Mined templates promoted past the frequency or burst threshold.",
	mCandidates:    "Distinct novel-signature candidates surfaced by the watcher.",
}

// latencyBuckets are the request-duration histogram upper bounds in
// seconds; +Inf is implicit.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// applyBuckets bound the snapshot-apply duration histogram. Finer at
// the low end than latencyBuckets: a post-ingest delta apply is
// expected sub-millisecond, and regressions back toward full-corpus
// rebuild cost (milliseconds) must move visibly across buckets.
var applyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// syncBuckets bound the journal-fsync duration histogram: ~100µs on a
// local SSD, up toward seconds on a struggling device.
var syncBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1}

// groupBuckets bound the group-size histogram — powers of two because
// the interesting signal is order of magnitude: 1 means no concurrency
// to amortize, 16+ means the committer is earning its keep.
var groupBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

type histogram struct {
	counts []uint64 // one per bucket plus a final +Inf slot
	sum    float64
	total  uint64
}

func newMetrics() *metrics {
	return &metrics{
		counters:    make(map[string]uint64),
		requests:    make(map[reqKey]uint64),
		latency:     make(map[string]*histogram),
		apply:       &histogram{counts: make([]uint64, len(applyBuckets)+1)},
		journalSync: &histogram{counts: make([]uint64, len(syncBuckets)+1)},
		groupSize:   &histogram{counts: make([]uint64, len(groupBuckets)+1)},
	}
}

// add increments a named counter.
func (m *metrics) add(name string, n uint64) {
	m.mu.Lock()
	m.counters[name] += n
	m.mu.Unlock()
}

// observe records one finished request: its status code and duration.
func (m *metrics) observe(handler string, code int, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{handler, code}]++
	h := m.latency[handler]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
		m.latency[handler] = h
	}
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += sec
	h.total++
}

// observeApply records one incremental-engine delta application — the
// time a post-ingest query spent bringing the snapshot current, and how
// much the engine's dirty rules made it redo.
func (m *metrics) observeApply(d time.Duration, work core.ApplyStats) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[mEngRediagnosed] += uint64(work.Rediagnosed)
	m.counters[mEngJobsRefolded] += uint64(work.JobsRefolded)
	i := 0
	for i < len(applyBuckets) && sec > applyBuckets[i] {
		i++
	}
	m.apply.counts[i]++
	m.apply.sum += sec
	m.apply.total++
}

// observeSync records one group-commit fsync duration.
func (m *metrics) observeSync(d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	for i < len(syncBuckets) && sec > syncBuckets[i] {
		i++
	}
	m.journalSync.counts[i]++
	m.journalSync.sum += sec
	m.journalSync.total++
}

// observeGroup records how many staged writes one durable group (one
// fsync) covered.
func (m *metrics) observeGroup(n int) {
	v := float64(n)
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	for i < len(groupBuckets) && v > groupBuckets[i] {
		i++
	}
	m.groupSize.counts[i]++
	m.groupSize.sum += v
	m.groupSize.total++
}

// gauge is a scrape-time measurement supplied by the server.
type gauge struct {
	name  string
	help  string
	value float64
}

// write renders the registry in Prometheus text exposition format,
// deterministically ordered so scrapes (and tests) are stable.
func (m *metrics) write(w io.Writer, gauges []gauge) {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(counterHelp))
	for name := range counterHelp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, counterHelp[name], name, name, m.counters[name])
	}

	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].handler != keys[j].handler {
			return keys[i].handler < keys[j].handler
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# HELP hpcfail_http_requests_total HTTP requests by handler and status code.\n")
	fmt.Fprintf(w, "# TYPE hpcfail_http_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "hpcfail_http_requests_total{code=%q,handler=%q} %d\n", fmt.Sprint(k.code), k.handler, m.requests[k])
	}

	handlers := make([]string, 0, len(m.latency))
	for h := range m.latency {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	fmt.Fprintf(w, "# HELP hpcfail_http_request_duration_seconds Request latency by handler.\n")
	fmt.Fprintf(w, "# TYPE hpcfail_http_request_duration_seconds histogram\n")
	for _, hname := range handlers {
		h := m.latency[hname]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "hpcfail_http_request_duration_seconds_bucket{handler=%q,le=%q} %d\n", hname, trimFloat(ub), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "hpcfail_http_request_duration_seconds_bucket{handler=%q,le=\"+Inf\"} %d\n", hname, cum)
		fmt.Fprintf(w, "hpcfail_http_request_duration_seconds_sum{handler=%q} %g\n", hname, h.sum)
		fmt.Fprintf(w, "hpcfail_http_request_duration_seconds_count{handler=%q} %d\n", hname, h.total)
	}

	fmt.Fprintf(w, "# HELP hpcfail_snapshot_apply_seconds Incremental delta-apply duration per snapshot advance.\n")
	fmt.Fprintf(w, "# TYPE hpcfail_snapshot_apply_seconds histogram\n")
	cum := uint64(0)
	for i, ub := range applyBuckets {
		cum += m.apply.counts[i]
		fmt.Fprintf(w, "hpcfail_snapshot_apply_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.apply.counts[len(applyBuckets)]
	fmt.Fprintf(w, "hpcfail_snapshot_apply_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "hpcfail_snapshot_apply_seconds_sum %g\n", m.apply.sum)
	fmt.Fprintf(w, "hpcfail_snapshot_apply_seconds_count %d\n", m.apply.total)

	fmt.Fprintf(w, "# HELP hpcfail_journal_sync_seconds Replication-journal fsync duration per group commit.\n")
	fmt.Fprintf(w, "# TYPE hpcfail_journal_sync_seconds histogram\n")
	cum = 0
	for i, ub := range syncBuckets {
		cum += m.journalSync.counts[i]
		fmt.Fprintf(w, "hpcfail_journal_sync_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.journalSync.counts[len(syncBuckets)]
	fmt.Fprintf(w, "hpcfail_journal_sync_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "hpcfail_journal_sync_seconds_sum %g\n", m.journalSync.sum)
	fmt.Fprintf(w, "hpcfail_journal_sync_seconds_count %d\n", m.journalSync.total)

	fmt.Fprintf(w, "# HELP hpcfail_journal_group_size Writes covered by one group-commit fsync.\n")
	fmt.Fprintf(w, "# TYPE hpcfail_journal_group_size histogram\n")
	cum = 0
	for i, ub := range groupBuckets {
		cum += m.groupSize.counts[i]
		fmt.Fprintf(w, "hpcfail_journal_group_size_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.groupSize.counts[len(groupBuckets)]
	fmt.Fprintf(w, "hpcfail_journal_group_size_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "hpcfail_journal_group_size_sum %g\n", m.groupSize.sum)
	fmt.Fprintf(w, "hpcfail_journal_group_size_count %d\n", m.groupSize.total)

	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", g.name, g.help, g.name, g.name, g.value)
	}
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
