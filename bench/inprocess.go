package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
	"hpcfail/internal/replica"
	"hpcfail/internal/server"
	"hpcfail/internal/topology"
)

// inProcessReport produces, inside this process, the bytes
// `diagnose -logs dir` prints: load, run, render — the reference the
// CLI's output is held against.
func inProcessReport(dir string, sched topology.SchedulerType) ([]byte, error) {
	store, rep, err := layerLoadDir(dir, sched, noParent, 0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := layerRenderText(&buf, dir, store, rep, layerRun(store, noParent, 0), noParent, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Sample sizes of the traced run. Calls whose cost tracks the corpus are
// repeated a handful of times; per-request calls run over the first
// tracedRequests requests.
const (
	tracedRequests = 256
	tracedDeltas   = 8
	// A batch pass pair (untraced + decomposed) is repeated at least
	// batchPasses times, and on a small corpus for up to batchBudget,
	// never more than batchMaxPasses.
	batchPasses    = 3
	batchMaxPasses = 9
	batchBudget    = time.Second
)

// heapMB forces a collection and returns the live heap.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// spanMetric turns the spans recorded since mark under a name into a
// metric: their median duration in the given unit.
func spanMetric(mark int, name string, unit time.Duration, label string) metric {
	s := durSample(trace.since(mark, name), unit)
	return metric{s.median(), label, len(s)}
}

// spanSum is the total time of the named spans since mark, in seconds.
func spanSum(mark int, name string) float64 {
	return durSample(trace.since(mark, name), time.Second).sum()
}

// batchRun is one decomposed pass over a corpus directory.
type batchRun struct {
	text                []byte
	wall                time.Duration // heap measurements excluded
	storeHeapMB         float64
	mallocs, allocBytes uint64 // inside ParseLinesReport, exact
	lines, records      int
	detections          int
}

// tracedBatch does what LoadDirReport+Run+render.Diagnose do, one span
// per step, all under one parent span. With countAllocs it also reads
// the allocator's counters around each parse; ReadMemStats waits for a
// running collection to finish, which moves GC time out of the spans, so
// a pass that counts allocations is not one whose times are used.
func tracedBatch(dir string, sched topology.SchedulerType, op int, countAllocs bool) (batchRun, error) {
	var b batchRun
	begin := time.Now()
	parent := trace.begin("batch", noParent, op)
	var recs []events.Record
	rep := &logstore.IngestReport{}
	var ms0, ms1 runtime.MemStats
	for _, f := range layerStreamFiles(dir) {
		data, err := layerReadFile(f.path, parent, op)
		if os.IsNotExist(err) {
			rep.Missing = append(rep.Missing, f.stream.String())
			continue
		}
		if err != nil {
			return b, err
		}
		split := layerSplit(data, parent, op)
		if countAllocs {
			runtime.ReadMemStats(&ms0)
		}
		got, srep := layerParse(f.stream, sched, split, parent, op)
		if countAllocs {
			runtime.ReadMemStats(&ms1)
			b.mallocs += ms1.Mallocs - ms0.Mallocs
			b.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		b.lines += len(split)
		id := trace.begin("logstore.append", parent, op)
		recs = append(recs, got...)
		trace.end(id)
		rep.Streams = append(rep.Streams, srep)
	}
	store := layerStoreNew(recs, parent, op)
	res := layerRun(store, parent, op)
	var text, js bytes.Buffer
	if err := layerRenderText(&text, dir, store, rep, res, parent, op); err != nil {
		return b, err
	}
	trace.end(parent)
	b.wall = time.Since(begin)
	if err := layerRenderJSON(&js, res, noParent, op); err != nil {
		return b, err
	}
	b.text, b.records, b.detections = text.Bytes(), len(recs), len(res.Detections)
	return b, nil
}

// runTraced pushes the workload's inputs through each layer's public
// functions in this process, one span per call, and derives the
// per-layer metrics from the spans. No end-to-end metric comes from
// here: tracing is on.
func runTraced(e *env) (*result, error) {
	res := newResult(e.w.name)
	res.Detail = nil
	L := map[string]metric{}
	res.Layers = L
	sched := e.scn.Profile.Spec.Scheduler
	op := 0
	nextOp := func() int { op++; return op }

	// Set-up already ran under the tracer.
	L["faultsim.generate_s"] = spanMetric(e.traceMark, "faultsim.Generate", time.Second, "s")
	L["loggen.render_write_s"] = spanMetric(e.traceMark, "logstore.WriteDir", time.Second, "s")

	// Batch path, decomposed (read, split, parse per stream file, then
	// index, run, render) and, alternating with it, the same path
	// untraced as one call chain: what the spans must add up to, and
	// what the CLI's wall time is compared with. One warm-up of each
	// comes first so both sides see a grown heap and a warm page cache.
	batchLayers := []string{"logstore.read", "logparse.split", "logparse.ParseLinesReport", "logstore.append", "logstore.New", "core.Run", "render.Diagnose"}
	perLayer := map[string]sample{}
	var tracedWall, untraced, layered sample
	var mallocs, allocBytes uint64
	var lines, nrecs, ndets int
	var reference []byte
	passes := 0
	for begin := time.Now(); passes < batchPasses || (passes < batchMaxPasses && time.Since(begin) < batchBudget); {
		runtime.GC()
		saved := trace
		trace = nil
		t0 := time.Now()
		out, err := inProcessReport(e.corpusDir, sched)
		wall := time.Since(t0)
		trace = saved
		if err != nil {
			return nil, err
		}

		runtime.GC()
		mark := trace.mark()
		b, err := tracedBatch(e.corpusDir, sched, nextOp(), reference == nil)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(out, b.text) {
			return nil, fmt.Errorf("%s: decomposed batch path rendered a different report than LoadDirReport+Run+render", e.w.name)
		}
		if reference == nil { // warm-up: counts allocations, times discarded
			reference = out
			mallocs, allocBytes = b.mallocs, b.allocBytes
			continue
		}
		passes++
		untraced.add(wall, time.Second)
		tracedWall.add(b.wall, time.Second)
		sum := 0.0
		for _, name := range batchLayers {
			v := spanSum(mark, name)
			perLayer[name] = append(perLayer[name], v)
			sum += v
		}
		layered = append(layered, sum)
		lines, nrecs, ndets = b.lines, b.records, b.detections
	}
	parse, index, run := perLayer["logparse.ParseLinesReport"].median(), perLayer["logstore.New"].median(), perLayer["core.Run"].median()
	L["logstore.read_s"] = metric{perLayer["logstore.read"].median(), "s", passes}
	L["logparse.split_s"] = metric{perLayer["logparse.split"].median(), "s", passes}
	L["logparse.parse_s"] = metric{parse, "s", passes}
	L["logparse.parse_ns_per_line"] = metric{parse * 1e9 / float64(lines), "ns", lines}
	L["logparse.allocs_per_line"] = metric{float64(mallocs) / float64(lines), "count", lines}
	L["logparse.bytes_per_line"] = metric{float64(allocBytes) / float64(lines), "B", lines}
	L["logstore.append_s"] = metric{perLayer["logstore.append"].median(), "s", passes}
	L["logstore.index_s"] = metric{index, "s", passes}
	L["logstore.index_ns_per_record"] = metric{index * 1e9 / float64(nrecs), "ns", nrecs}
	L["core.run_s"] = metric{run, "s", passes}
	L["core.run_us_per_detection"] = metric{run * 1e6 / float64(max(1, ndets)), "us", ndets}
	L["render.text_us"] = metric{perLayer["render.Diagnose"].median() * 1e6, "us", passes}
	L["render.json_us"] = spanMetric(e.traceMark, "render.DiagnoseJSON", time.Microsecond, "us")

	// Whether the spans add up is a property of the decomposition, not of
	// the box's load, and load only ever adds time: the fastest pass of
	// each side is held against the other.
	coverage := layered.min() / untraced.min()
	if coverage < 0.90 || coverage > 1.10 {
		return nil, fmt.Errorf("%s: batch layer spans sum to %.3f s, untraced in-process total is %.3f s: coverage %.2f outside 0.90–1.10", e.w.name, layered.min(), untraced.min(), coverage)
	}
	L["batch.trace_coverage"] = metric{coverage, "ratio", passes}
	L["trace.overhead_frac"] = metric{(tracedWall.median() - untraced.median()) / untraced.median(), "ratio", passes}
	var cli sample
	for i := 0; i < 3; i++ {
		out, wall, _, err := runDiagnose(e.bins.diagnose, e.corpusDir)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(out, reference) {
			return nil, fmt.Errorf("%s: CLI report differs from in-process render.Diagnose", e.w.name)
		}
		cli.add(wall, time.Second)
	}
	L["batch.process_overhead_s"] = metric{cli.median() - untraced.median(), "s", len(cli)}

	// Bootstrap path: what `serve -logs` does before it listens.
	mark := trace.mark()
	boot := trace.begin("bootstrap", noParent, nextOp())
	store, rep, err := layerLoadDir(e.corpusDir, sched, boot, op)
	if err != nil {
		return nil, err
	}
	base := store.All()
	// Heap footprints are taken here, outside anything timed: forcing a
	// collection inside a timed pass would spare its layers their GC work.
	before := heapMB()
	footprint := layerStoreNew(base, noParent, op)
	L["logstore.store_heap_mb"] = metric{heapMB() - before, "MB", 0}
	runtime.KeepAlive(footprint)
	footprint = nil
	before = heapMB()
	eng := layerNewEngine()
	layerEngineApply(eng, base, boot, op)
	layerEngineSnapshot(eng, boot, op)
	engineHeap := heapMB() - before
	watcher := layerNewWatcher(func(core.Detection) {})
	layerWatcherFeed(watcher, base, boot, op)
	trace.end(boot)
	L["logstore.load_dir_s"] = spanMetric(mark, "logstore.LoadDirReport", time.Second, "s")
	L["core.engine_apply_all_s"] = spanMetric(mark, "core.Engine.ApplyBatch", time.Second, "s")
	L["core.watcher_feed_all_s"] = spanMetric(mark, "core.Watcher.FeedAll", time.Second, "s")
	L["core.engine_heap_mb"] = metric{engineHeap, "MB", 0}
	if !e.w.seeded {
		// This workload's node starts empty: everything below runs on
		// empty state, not on the corpus the bootstrap path just loaded.
		base, eng, watcher = nil, layerNewEngine(), layerNewWatcher(func(core.Detection) {})
	}

	// Ingest path: each request goes through the five layer calls an
	// ingest is made of, then through a node set up like cmd/serve —
	// Server.Ingest for even requests, the HTTP handler for odd ones.
	// Interleaving keeps fsync drift out of the differences between the
	// three.
	reqs := e.reqs
	if len(reqs) > tracedRequests {
		reqs = reqs[:tracedRequests]
	}
	newNode := func(walDir string) (*server.Server, error) {
		s := layerNewServer(sched, walDir)
		if e.w.seeded {
			layerServerSeed(s, store, rep, noParent, nextOp())
		}
		return s, layerServerOpenLog(s, noParent, op)
	}
	mark = trace.mark()
	nodeWAL := e.newWALDir()
	srv, err := newNode(nodeWAL)
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	log, err := layerWALOpen(e.newWALDir())
	if err != nil {
		return nil, err
	}
	var payload []byte
	parsed := make([][]events.Record, len(reqs))
	for i := range reqs {
		id := trace.begin("ingest.layers", noParent, nextOp())
		pid := trace.begin("logparse.parse_batch", id, op)
		for _, b := range reqs[i].batches {
			stream, err := events.ParseStream(b.Stream)
			if err != nil {
				return nil, err
			}
			got, srep := layerParse(stream, sched, b.Lines, pid, op)
			if srep.Quarantined != 0 {
				return nil, fmt.Errorf("%s: request %d: %d lines quarantined on a clean corpus", e.w.name, i, srep.Quarantined)
			}
			parsed[i] = append(parsed[i], got...)
		}
		trace.end(pid)
		if payload, err = layerEncodeEntry(payload[:0], replica.Entry{Epoch: 1, Watermark: uint64(i + 2), Batches: reqs[i].batches}, id, op); err != nil {
			return nil, err
		}
		if err := layerWALAppend(log, payload, id, op); err != nil {
			return nil, err
		}
		if err := layerWALSync(log, id, op); err != nil {
			return nil, err
		}
		layerWatcherFeed(watcher, parsed[i], id, op)
		trace.end(id)

		if i%2 == 0 {
			a, err := layerServerIngest(srv, reqs[i].batches, noParent, nextOp())
			if err != nil {
				return nil, err
			}
			if a.Accepted != len(parsed[i]) || a.Quarantined != 0 {
				return nil, fmt.Errorf("%s: Server.Ingest accepted %d of %d records, quarantined %d", e.w.name, a.Accepted, len(parsed[i]), a.Quarantined)
			}
			continue
		}
		rec := httptest.NewRecorder()
		layerServe(handler, rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(reqs[i].body)), "server.handler_ingest", noParent, nextOp())
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: handler ingest: status %d: %s", e.w.name, rec.Code, rec.Body.String())
		}
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	if err := srv.CloseReplication(); err != nil {
		return nil, err
	}
	srv, handler = nil, nil
	five := [][]time.Duration{
		trace.since(mark, "logparse.parse_batch"), trace.since(mark, "replica.AppendEntry"), trace.since(mark, "wal.Log.AppendBatch"),
		trace.since(mark, "wal.Log.Sync"), trace.since(mark, "core.Watcher.FeedAll"),
	}
	L["logparse.parse_batch_us"] = spanMetric(mark, "logparse.parse_batch", time.Microsecond, "us")
	L["replica.encode_us"] = spanMetric(mark, "replica.AppendEntry", time.Microsecond, "us")
	L["wal.append_us"] = spanMetric(mark, "wal.Log.AppendBatch", time.Microsecond, "us")
	L["wal.sync_us"] = spanMetric(mark, "wal.Log.Sync", time.Microsecond, "us")
	L["core.watcher_feed_us"] = spanMetric(mark, "core.Watcher.FeedAll", time.Microsecond, "us")
	// Self time of Server.Ingest: per request, its span minus the five
	// layer calls made on the same request just before it.
	var self sample
	for i, d := range trace.since(mark, "server.Server.Ingest") {
		for _, layer := range five {
			d -= layer[2*i]
		}
		self.add(d, time.Microsecond)
	}
	ingest := spanMetric(mark, "server.Server.Ingest", time.Microsecond, "us")
	viaHandler := spanMetric(mark, "server.handler_ingest", time.Microsecond, "us")
	L["server.ingest_us"] = ingest
	L["server.ingest_self_us"] = metric{self.median(), "us", len(self)}
	L["server.handler_ingest_us"] = viaHandler
	L["server.handler_overhead_us"] = metric{viaHandler.Value - ingest.Value, "us", viaHandler.N}
	if e.w.seeded {
		L["server.seed_s"] = spanMetric(mark, "server.Server.Seed", time.Second, "s")
	}

	// Restart path over the WAL that node just wrote.
	mark = trace.mark()
	replayLog, err := layerWALOpen(nodeWAL)
	if err != nil {
		return nil, err
	}
	var payloads [][]byte
	err = layerWALReplay(replayLog, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}, noParent, nextOp())
	if err != nil {
		return nil, err
	}
	if err := replayLog.Close(); err != nil {
		return nil, err
	}
	if len(payloads) != len(reqs) {
		return nil, fmt.Errorf("%s: WAL replays %d entries, %d were acked", e.w.name, len(payloads), len(reqs))
	}
	for _, p := range payloads {
		if _, err := layerDecodeEntry(p, noParent, nextOp()); err != nil {
			return nil, err
		}
	}
	payloads = nil
	srv, err = newNode(nodeWAL)
	if err != nil {
		return nil, err
	}
	if got, want := srv.Watermark(), uint64(len(reqs))+srv.SeedWatermark(); got != want {
		return nil, fmt.Errorf("%s: node restarted at watermark %d, last ack was %d", e.w.name, got, want)
	}
	L["wal.replay_s"] = spanMetric(mark, "wal.Log.Replay", time.Second, "s")
	L["replica.decode_us"] = spanMetric(mark, "replica.DecodeEntry", time.Microsecond, "us")
	L["server.open_replication_log_s"] = spanMetric(mark, "server.Server.OpenReplicationLog", time.Second, "s")
	if !e.w.seeded {
		// An unseeded node has no Seed call; time one on the workload's
		// corpus so the metric exists on every workload.
		seeded := layerNewServer(sched, "")
		m := trace.mark()
		layerServerSeed(seeded, store, rep, noParent, nextOp())
		L["server.seed_s"] = spanMetric(m, "server.Server.Seed", time.Second, "s")
	}

	// Fresh reads on the restarted node: one write, then the read that
	// must fold it in, then the same read again from the cache. The
	// requests beyond the traced ones are new to this node.
	mark = trace.mark()
	handler = srv.Handler()
	fresh := e.reqs[len(reqs):]
	if len(fresh) == 0 {
		fresh = reqs // replaying known lines is still a delta to fold
	}
	get := func(name string) error {
		rec := httptest.NewRecorder()
		layerServe(handler, rec, httptest.NewRequest(http.MethodGet, "/v1/diagnose", nil), name, noParent, op)
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			return fmt.Errorf("%s: handler diagnose: status %d, %d bytes", e.w.name, rec.Code, rec.Body.Len())
		}
		return nil
	}
	deltas := min(tracedDeltas, len(fresh))
	for i := 0; i < deltas; i++ {
		if _, err := layerServerIngest(srv, fresh[i].batches, noParent, nextOp()); err != nil {
			return nil, err
		}
		if err := get("server.diagnose_fresh"); err != nil {
			return nil, err
		}
		if err := get("server.diagnose_cached"); err != nil {
			return nil, err
		}
	}
	L["server.diagnose_fresh_ms"] = spanMetric(mark, "server.diagnose_fresh", time.Millisecond, "ms")
	L["server.diagnose_cached_us"] = spanMetric(mark, "server.diagnose_cached", time.Microsecond, "us")
	// The replica-side write: the same node, now read-only, folding
	// entries a primary would have streamed to it.
	srv.SetReadOnly(true)
	wm := srv.Watermark()
	for i := 0; i < min(tracedRequests, len(fresh)-deltas); i++ {
		wm++
		if err := layerServerApply(srv, replica.Entry{Epoch: srv.Epoch(), Watermark: wm, Batches: fresh[deltas+i].batches}, noParent, nextOp()); err != nil {
			return nil, err
		}
	}
	if err := srv.CloseReplication(); err != nil {
		return nil, err
	}
	srv, handler = nil, nil
	L["server.replica_apply_us"] = spanMetric(mark, "server.Server.Apply", time.Microsecond, "us")
	if L["server.replica_apply_us"].N == 0 {
		return nil, fmt.Errorf("%s: no requests left to apply as a replica", e.w.name)
	}

	// Engine and live store, one small delta at a time, on the
	// workload's own base and on a week.
	mark = trace.mark()
	live := layerNewLive()
	live.Apply(base)
	for i := 0; i < min(tracedDeltas, len(parsed)); i++ {
		id := trace.begin("delta", noParent, nextOp())
		layerEngineApply(eng, parsed[i], id, op)
		layerEngineSnapshot(eng, id, op)
		layerLiveApply(live, parsed[i], id, op)
		layerLiveSnapshot(live, id, op)
		trace.end(id)
	}
	L["core.engine_apply_ms"] = spanMetric(mark, "core.Engine.ApplyBatch", time.Millisecond, "ms")
	L["core.engine_snapshot_us"] = spanMetric(mark, "core.Engine.Snapshot", time.Microsecond, "us")
	L["logstore.live_apply_ms"] = spanMetric(mark, "logstore.Live.Apply", time.Millisecond, "ms")
	L["logstore.live_snapshot_ms"] = spanMetric(mark, "logstore.Live.Snapshot", time.Millisecond, "ms")
	eng, live, store, base = nil, nil, nil, nil
	runtime.GC()

	weekEng := layerNewEngine()
	weekEng.ApplyBatch(records(e.scn, e.cfg.scale.week))
	weekEng.Snapshot(0)
	tail := records(e.scn, e.cfg.scale.tailWeek)
	mark = trace.mark()
	for i := 0; i < tracedDeltas && (i+1)*16 <= len(tail); i++ {
		layerEngineApply(weekEng, tail[i*16:(i+1)*16], noParent, nextOp())
		weekEng.Snapshot(0)
	}
	L["core.engine_apply_week_ms"] = spanMetric(mark, "core.Engine.ApplyBatch", time.Millisecond, "ms")

	res.Attempted = trace.mark()
	return res, nil
}
