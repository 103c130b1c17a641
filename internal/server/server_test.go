package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
	"hpcfail/internal/topology"
)

const (
	fixtureClean    = "../../testdata/corpus-clean"
	fixtureDegraded = "../../testdata/corpus-degraded"
)

// seedServer builds a server bootstrapped from a fixture corpus, the
// way cmd/serve does it.
func seedServer(t testing.TB, dir string, cfg Config) *Server {
	t.Helper()
	store, rep, err := logstore.LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	s.Seed(store, rep)
	return s
}

func get(t testing.TB, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func TestHealthz(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()

	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	var st struct {
		Status    string `json:"status"`
		Records   int    `json:"records"`
		Watermark uint64 `json:"watermark"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Records == 0 || st.Watermark != 1 {
		t.Errorf("healthz = %+v, want ok with seeded corpus at watermark 1", st)
	}

	s.BeginDrain()
	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("draining healthz = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

func TestIngestAdvancesWatermarkAndInvalidates(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()

	rec := get(t, h, "/v1/diagnose")
	if rec.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", rec.Code, rec.Body.String())
	}
	if wm := rec.Header().Get("X-Hpcfail-Watermark"); wm != "1" {
		t.Errorf("pre-ingest watermark header = %q, want 1", wm)
	}

	// A second identical query must come from the cache.
	misses := s.counter(mCacheMisses)
	rec = get(t, h, "/v1/diagnose")
	if rec.Code != http.StatusOK {
		t.Fatalf("cached diagnose = %d", rec.Code)
	}
	if got := s.counter(mCacheMisses); got != misses {
		t.Errorf("second identical query missed the cache (misses %d -> %d)", misses, got)
	}
	if s.counter(mCacheHits) == 0 {
		t.Error("no cache hit recorded for identical repeat query")
	}

	before := s.Records()
	body := `{"batches":[{"stream":"console","lines":[` +
		`"2015-03-03T00:00:00.000000Z c0-0c0s0n0 kernel: <4> EDAC MC0: corrected memory error on DIMM (benign burst)"]}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Watermark != 2 {
		t.Errorf("ingest result = %+v, want 1 accepted at watermark 2", res)
	}

	rec = get(t, h, "/v1/diagnose")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-ingest diagnose = %d", rec.Code)
	}
	if wm := rec.Header().Get("X-Hpcfail-Watermark"); wm != "2" {
		t.Errorf("post-ingest watermark header = %q, want 2 (cache not invalidated)", wm)
	}
	if s.Records() != before+1 {
		t.Errorf("corpus grew %d -> %d, want +1", before, s.Records())
	}
}

func TestIngestRejectsBadRequests(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
		method     string
		want       int
	}{
		{"get-method", "", http.MethodGet, http.StatusMethodNotAllowed},
		{"bad-json", "{", http.MethodPost, http.StatusBadRequest},
		{"no-batches", `{"batches":[]}`, http.MethodPost, http.StatusBadRequest},
		{"unknown-stream", `{"batches":[{"stream":"nope","lines":["x"]}]}`, http.MethodPost, http.StatusBadRequest},
		{"unknown-field", `{"streams":[]}`, http.MethodPost, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, "/v1/ingest", strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Errorf("code = %d, want %d (%s)", rec.Code, c.want, rec.Body.String())
			}
		})
	}
	if s.Watermark() != 1 {
		t.Errorf("rejected requests advanced the watermark to %d", s.Watermark())
	}
}

func TestDiagnoseQueryValidation(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()
	for _, target := range []string{
		"/v1/diagnose?node=not-a-cname",
		"/v1/diagnose?from=yesterday",
		"/v1/diagnose?window=broken",
		"/v1/diagnose?window=1h&from=2015-03-02T00:00:00Z",
		"/v1/diagnose?format=xml",
		"/v1/diagnose?full=maybe",
	} {
		if rec := get(t, h, target); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", target, rec.Code)
		}
	}
}

func TestDiagnoseFilters(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()

	full := get(t, h, "/v1/diagnose?format=json")
	if full.Code != http.StatusOK {
		t.Fatalf("diagnose = %d", full.Code)
	}
	all := strings.Count(full.Body.String(), "\n")
	if all == 0 {
		t.Fatal("fixture corpus produced no diagnoses")
	}

	// Scope to the first diagnosed node: every returned line mentions it
	// and at least one comes back.
	var first struct {
		Node string `json:"node"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(full.Body.String(), "\n", 2)[0]), &first); err != nil {
		t.Fatal(err)
	}
	scoped := get(t, h, "/v1/diagnose?format=json&node="+first.Node)
	if scoped.Code != http.StatusOK {
		t.Fatalf("scoped diagnose = %d", scoped.Code)
	}
	lines := strings.Split(strings.TrimSpace(scoped.Body.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("node filter %q returned nothing", first.Node)
	}
	for _, l := range lines {
		if !strings.Contains(l, `"node":"`+first.Node+`"`) {
			t.Errorf("filtered line for other node: %s", l)
		}
	}
	if len(lines) >= all {
		t.Logf("note: node %s accounts for all %d diagnoses", first.Node, all)
	}

	// A window ending at the corpus tail keeps everything; a tiny one
	// cannot return more.
	wide := get(t, h, "/v1/diagnose?format=json&window=8760h")
	tiny := get(t, h, "/v1/diagnose?format=json&window=1s")
	if wide.Code != http.StatusOK || tiny.Code != http.StatusOK {
		t.Fatalf("window diagnose = %d / %d", wide.Code, tiny.Code)
	}
	if w, n := strings.Count(wide.Body.String(), "\n"), strings.Count(tiny.Body.String(), "\n"); w != all || n > w {
		t.Errorf("window filtering: wide=%d tiny=%d all=%d", w, n, all)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{MaxInflight: 2})
	h := s.Handler()

	// Occupy every admission slot, as in-flight requests would.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	rec := get(t, h, "/v1/diagnose")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded diagnose = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 carried no Retry-After hint")
	}
	if s.counter(mShed) == 0 {
		t.Error("shed counter not incremented")
	}
	<-s.sem
	<-s.sem
	if rec := get(t, h, "/v1/diagnose"); rec.Code != http.StatusOK {
		t.Errorf("post-overload diagnose = %d, want 200", rec.Code)
	}
}

func TestDrainRejectsGuardedEndpoints(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()
	s.BeginDrain()
	for _, target := range []string{"/v1/diagnose", "/v1/alarms"} {
		if rec := get(t, h, target); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("draining %s = %d, want 503", target, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(`{"batches":[]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining ingest = %d, want 503", rec.Code)
	}
	// Metrics stay reachable while draining.
	if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("draining metrics = %d, want 200", rec.Code)
	}
}

func TestCheckpointWritesWatcherSnapshot(t *testing.T) {
	path := t.TempDir() + "/watch.ckpt"
	s := seedServer(t, fixtureClean, Config{CheckpointPath: path})
	s.BeginDrain()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{})
	restored, err := s2.RestoreCheckpoint(path)
	if err != nil || !restored {
		t.Fatalf("restore = %v, %v; want true, nil", restored, err)
	}
	// The snapshot carries detection state, not feed counters: the
	// restored watcher must agree on retained node state.
	if s2.watcher.StateSize().Nodes != s.watcher.StateSize().Nodes {
		t.Errorf("restored watcher nodes = %d, want %d",
			s2.watcher.StateSize().Nodes, s.watcher.StateSize().Nodes)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()
	get(t, h, "/v1/diagnose")
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hpcfail_http_requests_total counter",
		`hpcfail_http_requests_total{code="200",handler="diagnose"} 1`,
		"# TYPE hpcfail_http_request_duration_seconds histogram",
		"hpcfail_http_request_duration_seconds_bucket{handler=\"diagnose\",le=\"+Inf\"} 1",
		"# TYPE hpcfail_store_records gauge",
		"hpcfail_ingest_watermark 1",
		"hpcfail_cache_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

func TestAlarmStreamDeliversDetections(t *testing.T) {
	// Fresh, unseeded server: replaying a fixture terminal line must
	// surface as an SSE failure event.
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.BeginDrain()

	resp, err := http.Get(ts.URL + "/v1/alarms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alarms = %d", resp.StatusCode)
	}

	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			events <- sc.Text()
		}
		close(events)
	}()
	// The preamble proves the subscription is live before we ingest.
	waitForLine(t, events, "retry:")

	_, err = s.Ingest([]IngestBatch{{Stream: "console", Lines: []string{
		"2015-03-02T08:59:13.776954Z c1-0c2s8n1 kernel: <2> node c1-0c2s8n1 halting: system shutdown",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	waitForLine(t, events, "event: failure")
	waitForLine(t, events, `"node":"c1-0c2s8n1"`)
}

func waitForLine(t *testing.T, lines <-chan string, substr string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed before %q", substr)
			}
			if strings.Contains(l, substr) {
				return
			}
		case <-deadline:
			t.Fatalf("no line containing %q within 5s", substr)
		}
	}
}

// TestSnapshotClonesOncePerApply is the regression guard for the
// per-query ledger copy the incremental rework removed: the ingest
// ledger is deep-copied when a delta is applied (and twice at Seed),
// never per query — queries at a memoized watermark serve the snapshot
// as-is.
func TestSnapshotClonesOncePerApply(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()
	base := s.cloneCalls.Load() // Seed's copies

	// Repeated queries — cached, and a distinct render at the same
	// watermark — must not clone.
	for i := 0; i < 5; i++ {
		if rec := get(t, h, "/v1/diagnose"); rec.Code != http.StatusOK {
			t.Fatalf("diagnose = %d", rec.Code)
		}
	}
	if rec := get(t, h, "/v1/diagnose?format=json"); rec.Code != http.StatusOK {
		t.Fatalf("diagnose json = %d", rec.Code)
	}
	if got := s.cloneCalls.Load(); got != base {
		t.Fatalf("queries at a memoized watermark cloned the ledger %d times", got-base)
	}

	// One ingest followed by any number of queries clones exactly once.
	if _, err := s.Ingest([]IngestBatch{{Stream: "console", Lines: []string{
		"2015-03-03T08:00:00.000000Z c0-0c0s0n0 kernel: <4> EDAC MC0: corrected memory error on DIMM (benign burst)",
	}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if rec := get(t, h, "/v1/diagnose"); rec.Code != http.StatusOK {
			t.Fatalf("post-ingest diagnose = %d", rec.Code)
		}
	}
	if got := s.cloneCalls.Load(); got != base+1 {
		t.Fatalf("one applied delta caused %d ledger clones, want 1", got-base)
	}
}

// TestStalenessAndApplyMetrics covers the freshness surface added with
// the incremental engine: /healthz reports the diagnosed watermark and
// the staleness (watermarks ingested but not yet applied), /metrics
// carries the matching gauge and the delta-apply duration histogram.
func TestStalenessAndApplyMetrics(t *testing.T) {
	s := seedServer(t, fixtureClean, Config{})
	h := s.Handler()

	mustContain := func(stage, body string, wants ...string) {
		t.Helper()
		for _, w := range wants {
			if !strings.Contains(body, w) {
				t.Errorf("%s: metrics output lacks %q", stage, w)
			}
		}
	}

	// Freshly seeded: the snapshot is current and Seed's eager apply is
	// already on the histogram.
	mustContain("seeded", get(t, h, "/metrics").Body.String(),
		"# TYPE hpcfail_snapshot_staleness_watermarks gauge",
		"hpcfail_snapshot_staleness_watermarks 0",
		"# TYPE hpcfail_snapshot_apply_seconds histogram",
		"hpcfail_snapshot_apply_seconds_count 1")

	// Seeding diagnosed every detection once and folded every job once.
	snap, err := s.snapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[int64]bool{}
	for _, r := range snap.store.All() {
		if r.Stream == events.StreamScheduler && r.JobID != 0 {
			jobs[r.JobID] = true
		}
	}
	if len(snap.res.Detections) == 0 || len(jobs) == 0 {
		t.Fatal("fixture has no detections or no jobs — counters untested")
	}
	mustContain("seeded", get(t, h, "/metrics").Body.String(),
		"# TYPE hpcfail_engine_rediagnosed_total counter",
		fmt.Sprintf("hpcfail_engine_rediagnosed_total %d\n", len(snap.res.Detections)),
		"# TYPE hpcfail_engine_jobs_refolded_total counter",
		fmt.Sprintf("hpcfail_engine_jobs_refolded_total %d\n", len(jobs)))

	var st struct {
		Watermark uint64 `json:"watermark"`
		Diagnosed uint64 `json:"diagnosed_watermark"`
		Staleness uint64 `json:"staleness_watermarks"`
	}
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Watermark != 1 || st.Diagnosed != 1 || st.Staleness != 0 {
		t.Errorf("seeded healthz = %+v, want watermark 1 diagnosed 1 staleness 0", st)
	}

	// An unserved ingest leaves the snapshot one watermark behind.
	if _, err := s.Ingest([]IngestBatch{{Stream: "console", Lines: []string{
		"2015-03-03T08:00:00.000000Z c0-0c0s0n0 kernel: <4> EDAC MC0: corrected memory error on DIMM (benign burst)",
	}}}); err != nil {
		t.Fatal(err)
	}
	mustContain("stale", get(t, h, "/metrics").Body.String(),
		"hpcfail_snapshot_staleness_watermarks 1")
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Watermark != 2 || st.Diagnosed != 1 || st.Staleness != 1 {
		t.Errorf("stale healthz = %+v, want watermark 2 diagnosed 1 staleness 1", st)
	}

	// The first query applies the pending delta: staleness clears and the
	// apply lands on the histogram.
	if rec := get(t, h, "/v1/diagnose"); rec.Code != http.StatusOK {
		t.Fatalf("diagnose = %d", rec.Code)
	}
	// The delta is one console line: no job is folded again, and only the
	// detections on its node whose evidence windows reach it are
	// diagnosed again.
	reached := func(node string, at time.Time) int {
		n := 0
		for _, d := range snap.res.Detections {
			if d.Node.String() == node && d.Time.After(at.Add(-time.Second)) && !d.Time.After(at.Add(s.cfg.Pipeline.ExternalWindow)) {
				n++
			}
		}
		return n
	}
	rediagnosed := len(snap.res.Detections) + reached("c0-0c0s0n0", time.Date(2015, 3, 3, 8, 0, 0, 0, time.UTC))
	mustContain("applied", get(t, h, "/metrics").Body.String(),
		"hpcfail_snapshot_staleness_watermarks 0",
		"hpcfail_snapshot_apply_seconds_count 2",
		fmt.Sprintf("hpcfail_engine_rediagnosed_total %d\n", rediagnosed),
		fmt.Sprintf("hpcfail_engine_jobs_refolded_total %d\n", len(jobs)))
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Watermark != 2 || st.Diagnosed != 2 || st.Staleness != 0 {
		t.Errorf("applied healthz = %+v, want watermark 2 diagnosed 2 staleness 0", st)
	}

	// The same line a minute before a failure is evidence for it: that
	// node's reachable detections are diagnosed again, nothing else is.
	d := snap.res.Detections[0]
	at := d.Time.Add(-time.Minute).UTC()
	if reached(d.Node.String(), at) == 0 {
		t.Fatal("line reaches no detection — counter untested")
	}
	if _, err := s.Ingest([]IngestBatch{{Stream: "console", Lines: []string{
		at.Format("2006-01-02T15:04:05.000000Z") + " " + d.Node.String() + " kernel: <4> EDAC MC0: corrected memory error on DIMM (benign burst)",
	}}}); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/v1/diagnose"); rec.Code != http.StatusOK {
		t.Fatalf("diagnose = %d", rec.Code)
	}
	mustContain("evidence", get(t, h, "/metrics").Body.String(),
		fmt.Sprintf("hpcfail_engine_rediagnosed_total %d\n", rediagnosed+reached(d.Node.String(), at)),
		fmt.Sprintf("hpcfail_engine_jobs_refolded_total %d\n", len(jobs)))
}

// counter reads a metrics counter (test helper; production reads go
// through /metrics).
func (s *Server) counter(name string) uint64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.counters[name]
}
