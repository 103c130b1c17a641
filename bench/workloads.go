package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpcfail/internal/faultsim"
)

// scale names the day ranges the workloads cut from the scenario. The
// quick scale exists only so the package test finishes in seconds.
type scale struct {
	days                                        int
	week, fortnight, month, tailWeek, tailMonth slice
}

var (
	fullScale  = scale{31, slice{0, 7}, slice{0, 14}, slice{0, 30}, slice{7, 8}, slice{30, 31}}
	quickScale = scale{3, slice{0, 2}, slice{0, 2}, slice{0, 2}, slice{2, 3}, slice{2, 3}}
)

// workload is one set of inputs and the traffic run against them.
type workload struct {
	name string
	// corpus is the slice written as a log directory: what the CLI
	// diagnoses, and what serve boots from when seeded is set.
	corpus func(scale) slice
	seeded bool
	// reqs is the slice replayed as ingest requests of perRequest lines.
	reqs       func(scale) slice
	perRequest int
	run        func(*env) (*result, error)
}

var workloads = []workload{
	{"batch_month", func(s scale) slice { return s.month }, true, func(s scale) slice { return s.tailMonth }, 16, runBatchMonth},
	{"ingest_durable", func(s scale) slice { return s.fortnight }, false, func(s scale) slice { return s.fortnight }, 64, runIngestDurable},
	{"fresh_read", func(s scale) slice { return s.month }, true, func(s scale) slice { return s.tailMonth }, 16, runFreshRead},
	{"mixed_open", func(s scale) slice { return s.week }, true, func(s scale) slice { return s.tailWeek }, 16, runMixedOpen},
}

// env is everything set-up hands a workload.
type env struct {
	cfg       config
	w         workload
	bins      binaries
	scn       *faultsim.Scenario
	corpus    slice
	corpusDir string
	reqs      []request
	// corpusLines and corpusRecords count what corpusDir holds;
	// sentRecords counts the records behind reqs.
	corpusLines, corpusRecords, sentRecords int
	// workDir is scratch space of this run, inside the checkout.
	workDir string
	walSeq  int
	// traceMark is the tracer position when this workload's set-up began.
	traceMark int
	// setup holds the duration of every setUp call, in seconds.
	setup sample
}

// newWALDir returns a fresh directory for one serve instance's WAL.
func (e *env) newWALDir() string {
	e.walSeq++
	return filepath.Join(e.workDir, fmt.Sprintf("wal-%d", e.walSeq))
}

// logsDir is what `serve -logs` gets for this workload ("" = empty node).
func (e *env) logsDir() string {
	if e.w.seeded {
		return e.corpusDir
	}
	return ""
}

// roundWindow is how long the timed loop of one round runs: an equal
// share of --seconds.
func (e *env) roundWindow() time.Duration {
	return time.Duration(e.cfg.seconds * float64(time.Second) / float64(e.cfg.rounds))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a median or percentile.
	N int `json:"n,omitempty"`
}

// result is what one workload run reports.
type result struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	// EndToEnd holds the metrics BENCHMARK.json gates, defined on every
	// workload.
	EndToEnd map[string]metric `json:"end_to_end"`
	// Detail holds the workload's own named metrics and diagnostics.
	Detail map[string]metric `json:"detail,omitempty"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]metric `json:"per_layer,omitempty"`
	WallS  float64           `json:"wall_s"`
}

func newResult(name string) *result {
	return &result{Workload: name, EndToEnd: map[string]metric{}, Detail: map[string]metric{}}
}

// setEndToEnd fills the four gated metrics every workload defines beside
// setup_s.
func (r *result) setEndToEnd(opMS sample, linesPerS float64, startS, rssMB sample) {
	r.EndToEnd["op_p50_ms"] = metric{opMS.median(), "ms", len(opMS)}
	r.EndToEnd["lines_per_s"] = metric{linesPerS, "lines/s", 0}
	r.EndToEnd["start_s"] = metric{startS.median(), "s", len(startS)}
	r.EndToEnd["peak_rss_mb"] = metric{rssMB.median(), "MB", len(rssMB)}
}

// latencies records the usual summary of a latency sample under a name
// prefix: p50 always, p95 only when ten samples lie beyond it, p99 and
// max as diagnostics.
func (r *result) latencies(prefix string, s sample) {
	r.Detail[prefix+"_p50_ms"] = metric{s.median(), "ms", len(s)}
	if s.p95Supported() {
		r.Detail[prefix+"_p95_ms"] = metric{s.quantile(0.95), "ms", len(s)}
	}
	r.Detail[prefix+"_p99_ms"] = metric{s.quantile(0.99), "ms", len(s)}
	r.Detail[prefix+"_max_ms"] = metric{s.max(), "ms", len(s)}
}

// bootstrap starts serve on the workload's corpus and checks that it
// loaded every record.
func (e *env) bootstrap() (*node, time.Duration, error) {
	n, ready, err := startServe(e.bins.serve, e.logsDir(), e.newWALDir(), nil)
	if err != nil {
		return nil, 0, err
	}
	if e.w.seeded {
		h, err := getHealth(newClient(), n.url)
		if err != nil {
			n.kill()
			return nil, 0, err
		}
		if h.Records != e.corpusRecords {
			n.kill()
			return nil, 0, fmt.Errorf("%s: serve bootstrapped %d records, corpus has %d", e.w.name, h.Records, e.corpusRecords)
		}
	}
	return n, ready, nil
}

// startN starts a node n times, killing every one but the last, adds
// each start-up time to into and returns the node left running.
func startN(n int, into *sample, start func() (*node, time.Duration, error)) (*node, error) {
	var last *node
	for i := 0; i < n; i++ {
		if last != nil {
			last.kill()
		}
		var ready time.Duration
		var err error
		if last, ready, err = start(); err != nil {
			return nil, fmt.Errorf("start %d of %d: %w", i+1, n, err)
		}
		into.add(ready, time.Second)
	}
	return last, nil
}

// detection is the identity of one diagnosis line of `-json` output.
type detection struct {
	Time time.Time `json:"time"`
	Node string    `json:"node"`
}

// parseDetections decodes NDJSON diagnose output into a sorted list of
// raw lines (for order-insensitive set equality) and their identities.
func parseDetections(ndjson []byte) ([]string, []detection, error) {
	var lines []string
	var dets []detection
	for _, l := range bytes.Split(bytes.TrimSpace(ndjson), []byte("\n")) {
		if len(l) == 0 {
			continue
		}
		var d detection
		if err := json.Unmarshal(l, &d); err != nil {
			return nil, nil, fmt.Errorf("diagnose json line %q: %w", l, err)
		}
		lines = append(lines, string(l))
		dets = append(dets, d)
	}
	sort.Strings(lines)
	return lines, dets, nil
}

// checkGroundTruth holds the CLI's detections against the simulator's
// failure list: EXPERIMENTS.md states recall ≈ 100 % and zero spurious
// detections on a clean corpus (node match within 30 s).
func checkGroundTruth(dets []detection, truth []faultsim.Failure) error {
	used := make([]bool, len(dets))
	matched := 0
	for _, f := range truth {
		for i, d := range dets {
			if used[i] || d.Node != f.Node.String() {
				continue
			}
			if dt := d.Time.Sub(f.Time); dt >= -30*time.Second && dt <= 30*time.Second {
				used[i] = true
				matched++
				break
			}
		}
	}
	if len(truth) > 0 && float64(matched) < 0.98*float64(len(truth)) {
		return fmt.Errorf("recall %d/%d below the 0.98 floor", matched, len(truth))
	}
	if spurious := len(dets) - matched; spurious != 0 {
		return fmt.Errorf("%d spurious detections (%d detections, %d matched ground truth)", spurious, len(dets), matched)
	}
	return nil
}

// runBatchMonth is the analyst path: log directory → complete report,
// one process per run, then the same directory → serving node.
func runBatchMonth(e *env) (*result, error) {
	res := newResult(e.w.name)
	var wall, rss, boot sample
	var first []byte
	for round := 0; round < e.cfg.rounds; round++ {
		if err := e.setUp(); err != nil {
			return nil, err
		}
		if round == 0 {
			jsonOut, _, _, err := runDiagnose(e.bins.diagnose, e.corpusDir, "-json")
			if err != nil {
				return nil, err
			}
			_, dets, err := parseDetections(jsonOut)
			if err != nil {
				return nil, err
			}
			if err := checkGroundTruth(dets, failures(e.scn, e.corpus)); err != nil {
				return nil, fmt.Errorf("%s: %w", e.w.name, err)
			}
		}
		for begin, ran := time.Now(), 0; ran == 0 || time.Since(begin) < e.roundWindow(); ran++ {
			out, d, mb, err := runDiagnose(e.bins.diagnose, e.corpusDir)
			res.Attempted++
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = out
			} else if !bytes.Equal(first, out) {
				return nil, fmt.Errorf("%s: run %d printed a different report than run 1", e.w.name, len(wall)+1)
			}
			wall.add(d, time.Millisecond)
			rss = append(rss, mb)
		}
		n, ready, err := e.bootstrap()
		res.Attempted++
		if err != nil {
			return nil, err
		}
		n.kill()
		boot.add(ready, time.Second)
	}

	res.Detail["batch_diagnose_s"] = metric{wall.median() / 1000, "s", len(wall)}
	res.Detail["batch_diagnose_max_s"] = metric{wall.max() / 1000, "s", len(wall)}
	res.Detail["batch_peak_rss_mb"] = metric{rss.median(), "MB", len(rss)}
	res.Detail["bootstrap_s"] = metric{boot.median(), "s", len(boot)}
	res.setEndToEnd(wall, float64(e.corpusLines)*1000/wall.median(), boot, rss)
	return res, nil
}

// runIngestDurable replays the request list into an empty node with one
// closed-loop writer per core, then kills the node and restarts it on
// the same WAL — pass after pass until the round's window is used up.
func runIngestDurable(e *env) (*result, error) {
	res := newResult(e.w.name)
	var want []string
	carrier := map[eventKey]int{} // record → index of the request carrying it
	inBytes := 0
	var acks, alarms, restart, rate, rss, groupSize, walAmp sample
	for round := 0; round < e.cfg.rounds; round++ {
		if err := e.setUp(); err != nil {
			return nil, err
		}
		if round == 0 {
			cliJSON, _, _, err := runDiagnose(e.bins.diagnose, e.corpusDir, "-json")
			if err != nil {
				return nil, err
			}
			if want, _, err = parseDetections(cliJSON); err != nil {
				return nil, err
			}
			for i := range e.reqs {
				for _, k := range e.reqs[i].events {
					carrier[k] = i
				}
				inBytes += e.reqs[i].lineBytes
			}
		}
		for begin, passes := time.Now(), 0; passes == 0 || time.Since(begin) < e.roundWindow(); passes++ {
			p, err := e.ingestPass(want, carrier)
			if err != nil {
				return nil, fmt.Errorf("%s: pass %d: %w", e.w.name, len(rate)+1, err)
			}
			// Requests, the restarts, and every event the node published.
			res.Attempted += len(e.reqs) + ingestRestarts + p.published
			res.Failed += p.failedAcks + p.published - len(p.alarms)
			acks = append(acks, p.acks...)
			alarms = append(alarms, p.alarms...)
			restart = append(restart, p.restarts...)
			rate = append(rate, float64(totalLines(e.reqs))/p.replay.Seconds())
			rss = append(rss, p.rssMB)
			groupSize = append(groupSize, float64(len(e.reqs))/p.walSyncs)
			walAmp = append(walAmp, p.walBytes/float64(inBytes))
		}
	}

	res.Detail["ingest_lines_per_s"] = metric{rate.median(), "lines/s", len(rate)}
	res.latencies("ingest_ack", acks)
	res.latencies("alarm", alarms)
	res.Detail["restart_ready_s"] = metric{restart.median(), "s", len(restart)}
	res.Detail["serve_peak_rss_mb"] = metric{rss.median(), "MB", len(rss)}
	res.Detail["server.group_size"] = metric{groupSize.median(), "count", len(groupSize)}
	res.Detail["wal.bytes_per_input_byte"] = metric{walAmp.median(), "ratio", len(walAmp)}
	res.setEndToEnd(acks, rate.median(), restart, rss)
	return res, nil
}

// ingestRestarts is how often a pass kills and restarts the node on the
// WAL it wrote: a restart takes well under a second, and two a pass give
// start_s six samples instead of three.
const ingestRestarts = 2

// ingestOutcome is what one replay-kill-restart pass measured.
type ingestOutcome struct {
	acks, alarms       sample // ms
	restarts           sample // s
	failedAcks         int
	published          int // alarm + failure events the node counted
	replay             time.Duration
	rssMB              float64
	walSyncs, walBytes float64
}

// ingestPass runs one pass of ingest_durable on a fresh WAL and checks
// the durability contract: the served detection set equals want (the
// CLI's over the same lines), and after kill -9 the restarted node
// stands at the last acked watermark and serves the same bytes.
func (e *env) ingestPass(want []string, carrier map[eventKey]int) (ingestOutcome, error) {
	var out ingestOutcome
	walDir := e.newWALDir()
	n, _, err := startServe(e.bins.serve, "", walDir, nil)
	if err != nil {
		return out, err
	}
	defer n.kill()
	sub, err := subscribe(n.url)
	if err != nil {
		return out, err
	}

	sentAt := make([]time.Time, len(e.reqs))
	lat := make([]time.Duration, len(e.reqs))
	var next, accepted, quarantined, failed atomic.Int64
	var lastWM atomic.Uint64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < e.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.reqs) {
					return
				}
				sentAt[i] = time.Now()
				a, err := postIngest(client, n.url, e.reqs[i].body)
				lat[i] = time.Since(sentAt[i])
				if err != nil {
					failed.Add(1)
					lat[i] = -1
					continue
				}
				accepted.Add(int64(a.Accepted))
				quarantined.Add(int64(a.Quarantined))
				for cur := lastWM.Load(); a.Watermark > cur && !lastWM.CompareAndSwap(cur, a.Watermark); cur = lastWM.Load() {
				}
			}
		}()
	}
	wg.Wait()
	out.replay = time.Since(begin)
	out.failedAcks = int(failed.Load())
	for _, d := range lat {
		if d >= 0 {
			out.acks.add(d, time.Millisecond)
		}
	}

	client := newClient()
	body, wm, err := getDiagnose(client, n.url, "format=json")
	if err != nil {
		sub.closeAfter(0, 0)
		return out, err
	}
	m, err := scrapeMetrics(client, n.url)
	out.published = int(m["hpcfail_alarms_total"] + m["hpcfail_detections_total"])
	// The last frames may still be on the wire when the last ack lands.
	frames := sub.closeAfter(out.published, 2*time.Second)
	if err != nil {
		return out, err
	}
	if out.rssMB, err = n.peakRSSMB(); err != nil {
		return out, err
	}
	out.walSyncs, out.walBytes = m["hpcfail_wal_syncs"], m["hpcfail_wal_bytes"]
	for _, f := range frames {
		if i, ok := carrier[f.key]; ok && !sentAt[i].IsZero() {
			out.alarms.add(f.at.Sub(sentAt[i]), time.Millisecond)
		}
	}
	n.kill()

	again, err := startN(ingestRestarts, &out.restarts, func() (*node, time.Duration, error) {
		return startServe(e.bins.serve, "", walDir, func(h health) bool { return h.Watermark >= lastWM.Load() })
	})
	if err != nil {
		return out, fmt.Errorf("restart after kill -9: %w", err)
	}
	defer again.kill()
	body2, wm2, err := getDiagnose(client, again.url, "format=json")
	if err != nil {
		return out, err
	}
	if wm2 != wm || !bytes.Equal(body, body2) {
		return out, fmt.Errorf("after kill -9 the node serves watermark %d (%d bytes), before it served %d (%d bytes)", wm2, len(body2), wm, len(body))
	}
	if out.failedAcks != 0 {
		return out, nil // the sums below cannot hold; the failures are reported
	}
	if q := quarantined.Load(); q != 0 {
		return out, fmt.Errorf("%d lines quarantined on a clean corpus", q)
	}
	if accepted.Load() != int64(e.sentRecords) {
		return out, fmt.Errorf("accepted %d records, sent %d", accepted.Load(), e.sentRecords)
	}
	if wm != lastWM.Load() {
		return out, fmt.Errorf("diagnose at watermark %d, last ack was %d", wm, lastWM.Load())
	}
	got, _, err := parseDetections(body)
	if err != nil {
		return out, err
	}
	if !slices.Equal(got, want) {
		return out, fmt.Errorf("served detection set (%d) differs from the CLI's over the same lines (%d)", len(got), len(want))
	}
	return out, nil
}

// runFreshRead alternates one small write with a read that must reflect
// it, on a node holding the month: one closed-loop client. Every round
// boots a node of its own and sends it the same requests from the first.
func runFreshRead(e *env) (*result, error) {
	res := newResult(e.w.name)
	client := newClient()
	var fresh, acks, cycle, boot, rss sample
	for round := 0; round < e.cfg.rounds; round++ {
		if err := e.setUp(); err != nil {
			return nil, err
		}
		n, ready, err := e.bootstrap()
		res.Attempted++
		if err != nil {
			return nil, err
		}
		boot.add(ready, time.Second)
		err = func() error {
			defer n.kill()
			begin := time.Now()
			for i := 0; i < len(e.reqs) && (i < 2 || time.Since(begin) < e.roundWindow()); i++ {
				res.Attempted += 2
				t0 := time.Now()
				a, err := postIngest(client, n.url, e.reqs[i].body)
				t1 := time.Now()
				if err != nil {
					res.Failed += 2
					continue
				}
				body, wm, err := getDiagnose(client, n.url, fmt.Sprintf("min_watermark=%d", a.Watermark))
				t2 := time.Now()
				if err != nil {
					res.Failed++
					continue
				}
				if wm < a.Watermark || len(body) == 0 {
					return fmt.Errorf("%s: read after ack %d served watermark %d (%d bytes)", e.w.name, a.Watermark, wm, len(body))
				}
				acks.add(t1.Sub(t0), time.Millisecond)
				fresh.add(t2.Sub(t1), time.Millisecond)
				cycle.add(t2.Sub(t0), time.Millisecond)
			}
			mb, err := n.peakRSSMB()
			rss = append(rss, mb)
			return err
		}()
		if err != nil {
			return nil, err
		}
	}
	if len(fresh) == 0 {
		return nil, fmt.Errorf("%s: no write→read cycle completed", e.w.name)
	}

	res.Detail["bootstrap_s"] = metric{boot.median(), "s", len(boot)}
	res.latencies("fresh_diagnose", fresh)
	res.latencies("fresh_ack", acks)
	res.Detail["fresh_cycle_p50_ms"] = metric{cycle.median(), "ms", len(cycle)}
	res.Detail["serve_peak_rss_mb"] = metric{rss.median(), "MB", len(rss)}
	// Lines made readable per second: the mean request size of the whole
	// tail over the median cycle, so the handful of requests a window
	// happens to reach does not decide the figure.
	perRequest := float64(totalLines(e.reqs)) / float64(len(e.reqs))
	res.setEndToEnd(fresh, perRequest*1000/cycle.median(), boot, rss)
	return res, nil
}

// mixedRate is the open-loop arrival rate of mixed_open, requests per
// second; every mixedWriteEvery-th arrival is an ingest.
const (
	mixedRate       = 100
	mixedWriteEvery = 33
	mixedQueries    = 32
	// mixedMaxInflight bounds the open loop's concurrent requests; it is
	// far above what a healthy node leaves unanswered at mixedRate.
	mixedMaxInflight = 32
	// mixedStartsPerRound is how often each round boots its node: a week
	// boots in half a second, so three starts a round cost little and
	// give start_s nine samples.
	mixedStartsPerRound = 3
)

// mixedQuerySet builds the fixed 32-query set: the whole corpus as text
// and JSON, node= for nodes that failed, and from/to windows around
// failures, so every query has something to report.
func mixedQuerySet(truth []faultsim.Failure) []string {
	qs := []string{"", "format=json"}
	seen := map[string]bool{}
	for _, f := range truth {
		if len(qs) >= 22 {
			break
		}
		if node := f.Node.String(); !seen[node] {
			seen[node] = true
			q := "node=" + url.QueryEscape(node)
			if len(qs)%2 == 1 {
				q += "&format=json"
			}
			qs = append(qs, q)
		}
	}
	for i := 0; len(qs) < mixedQueries && len(truth) > 0; i++ {
		f := truth[(i*7)%len(truth)]
		from := f.Time.Add(-time.Duration(6+i) * time.Hour).UTC().Format(time.RFC3339)
		to := f.Time.Add(time.Duration(6+i) * time.Hour).UTC().Format(time.RFC3339)
		q := "from=" + url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
		if i%2 == 1 {
			q += "&format=json"
		}
		qs = append(qs, q)
	}
	return qs
}

// mixedOutcome is what became of one scheduled request.
type mixedOutcome struct {
	lat, late time.Duration
	status    int // 0 ok, 1 shed, 2 failed
	lines     int
}

// runMixedOpen offers reads and writes on a fixed schedule that does not
// slow down when the node does; latency counts from each request's due
// time. Every round boots a node of its own and offers it the next
// stretch of the one schedule.
func runMixedOpen(e *env) (*result, error) {
	res := newResult(e.w.name)
	var (
		queries           []string
		plan              []int // query index, or -1-i for write i
		out               []mixedOutcome
		boot, rss         sample
		span              time.Duration
		looks, hits, coal float64
	)
	client := newClient()
	for round := 0; round < e.cfg.rounds; round++ {
		if err := e.setUp(); err != nil {
			return nil, err
		}
		if round == 0 {
			// The whole schedule is drawn before any clock starts.
			if queries = mixedQuerySet(failures(e.scn, e.corpus)); len(queries) < 3 {
				return nil, fmt.Errorf("%s: corpus has no failures to query", e.w.name)
			}
			total := min(int(e.cfg.seconds*mixedRate), len(e.reqs)*mixedWriteEvery)
			rng := rand.New(rand.NewSource(int64(e.cfg.seed)))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(queries)-1))
			plan, out = make([]int, total), make([]mixedOutcome, total)
			for i, writes := 0, 0; i < total; i++ {
				if i%mixedWriteEvery == mixedWriteEvery-1 {
					plan[i] = -1 - writes
					writes++
				} else {
					plan[i] = int(zipf.Uint64())
				}
			}
		}
		n, err := startN(mixedStartsPerRound, &boot, e.bootstrap)
		res.Attempted += mixedStartsPerRound
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer n.kill()
			// Warm every query once so the run measures the steady state,
			// not 32 first renders.
			for _, q := range queries {
				if _, _, err := getDiagnose(client, n.url, q); err != nil {
					return err
				}
			}
			lo, hi := round*len(plan)/e.cfg.rounds, (round+1)*len(plan)/e.cfg.rounds
			d, err := e.offer(client, n.url, queries, plan[lo:hi], out[lo:hi])
			if err != nil {
				return err
			}
			span += d
			m, err := scrapeMetrics(client, n.url)
			if err != nil {
				return err
			}
			looks += m["hpcfail_cache_hits_total"] + m["hpcfail_cache_misses_total"]
			hits += m["hpcfail_cache_hits_total"]
			coal += m["hpcfail_coalesced_queries_total"]
			mb, err := n.peakRSSMB()
			rss = append(rss, mb)
			return err
		}()
		if err != nil {
			return nil, err
		}
	}

	var reads, acks, late sample
	shed, lines := 0, 0
	for i, o := range out {
		res.Attempted++
		late.add(o.late, time.Millisecond)
		if o.status != 0 {
			res.Failed++
			if o.status == 1 {
				shed++
			}
			continue
		}
		if plan[i] < 0 {
			acks.add(o.lat, time.Millisecond)
			lines += o.lines
		} else {
			reads.add(o.lat, time.Millisecond)
		}
	}
	res.latencies("mixed_read", reads)
	res.latencies("mixed_ack", acks)
	res.Detail["bootstrap_s"] = metric{boot.median(), "s", len(boot)}
	res.Detail["serve_peak_rss_mb"] = metric{rss.median(), "MB", len(rss)}
	res.Detail["mixed.shed_frac"] = metric{float64(shed) / float64(len(out)), "ratio", len(out)}
	res.Detail["mixed.offered_per_s"] = metric{float64(len(out)) / span.Seconds(), "1/s", len(out)}
	res.Detail["mixed.generator_late_p99_ms"] = metric{late.quantile(0.99), "ms", len(late)}
	res.Detail["mixed.generator_late_max_ms"] = metric{late.max(), "ms", len(late)}
	if looks > 0 {
		res.Detail["server.cache_hit_ratio"] = metric{hits / looks, "ratio", int(looks)}
		res.Detail["server.coalesced_frac"] = metric{coal / looks, "ratio", int(looks)}
	}
	res.setEndToEnd(reads, float64(lines)/span.Seconds(), boot, rss)
	return res, nil
}

// offer sends one stretch of the schedule to a node, each request at its
// due time on its own goroutine, and returns how long the stretch took.
func (e *env) offer(client *http.Client, base string, queries []string, plan []int, out []mixedOutcome) (time.Duration, error) {
	interval := time.Second / mixedRate
	var wg sync.WaitGroup
	var emptyBody atomic.Int64
	// An open loop has as many requests in flight as the node leaves
	// unanswered; the semaphore only keeps a wedged node from spawning
	// goroutines without bound, and a dispatcher blocked on it shows up
	// as generator lateness.
	inflight := make(chan struct{}, mixedMaxInflight)
	begin := time.Now()
	for i := range plan {
		due := begin.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		inflight <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-inflight }()
			o := &out[i]
			o.late = time.Since(due)
			var err error
			if p := plan[i]; p < 0 {
				req := &e.reqs[-1-p]
				_, err = postIngest(client, base, req.body)
				o.lines = req.lines
			} else {
				var body []byte
				body, _, err = getDiagnose(client, base, queries[p])
				if err == nil && len(body) == 0 {
					emptyBody.Add(1)
				}
			}
			o.lat = time.Since(due)
			if err != nil {
				o.status = 2
				if isShed(err) {
					o.status = 1
				}
			}
		}(i)
	}
	wg.Wait()
	if k := emptyBody.Load(); k != 0 {
		return 0, fmt.Errorf("%s: %d reads answered 200 with an empty body", e.w.name, k)
	}
	return time.Since(begin), nil
}
