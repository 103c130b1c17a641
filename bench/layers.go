package main

// Every call the benchmark makes into a layer of the system goes through
// this file, one wrapper per public function, each recording a span
// named <package>.<Function> when the run is traced. A refactor that
// renames or removes one of these symbols breaks the build here and
// nowhere else in bench/.
//
// Pinned symbols:
//
//	faultsim.Generate
//	loggen.Render
//	logstore.LoadDirReport / New / NewLive (Apply, Snapshot) / WriteDir
//	logparse.ParseLinesReport
//	core.Run / NewEngine / (*Engine).ApplyBatch / (*Engine).Snapshot /
//	     NewWatcher / (*Watcher).FeedAll
//	render.Diagnose / DiagnoseJSON
//	wal.Open / (*Log).AppendBatch / (*Log).Sync / (*Log).Replay
//	replica.AppendEntry / DecodeEntry
//	server.New / (*Server).Seed / Ingest / Handler / OpenReplicationLog /
//	     Apply
//
// ROADMAP's deletion candidates (core.RunParallel, core.RunSharded,
// logstore.ShardedStore, logstore.StreamLoadDir, the checkpoint journal)
// are deliberately not imported: the benchmark must survive their
// removal unchanged.

import (
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/render"
	"hpcfail/internal/replica"
	"hpcfail/internal/server"
	"hpcfail/internal/topology"
	"hpcfail/internal/wal"
)

func layerGenerate(p faultsim.Profile, start, end time.Time, seed uint64) (*faultsim.Scenario, error) {
	id := trace.begin("faultsim.Generate", noParent, 0)
	defer trace.end(id)
	return faultsim.Generate(p, start, end, seed)
}

// layerRender is called once per record while request bodies are
// encoded; it is too fine-grained to span, so it is timed by its caller.
func layerRender(r events.Record, sched topology.SchedulerType) []string {
	return loggen.Render(r, sched)
}

func layerWriteDir(dir string, recs []events.Record, sched topology.SchedulerType) error {
	id := trace.begin("logstore.WriteDir", noParent, 0)
	defer trace.end(id)
	return logstore.WriteDir(dir, recs, sched)
}

func layerLoadDir(dir string, sched topology.SchedulerType, parent, op int) (*logstore.Store, *logstore.IngestReport, error) {
	id := trace.begin("logstore.LoadDirReport", parent, op)
	defer trace.end(id)
	return logstore.LoadDirReport(dir, sched)
}

// streamFile is one stream's log file of a corpus directory.
type streamFile struct {
	stream events.Stream
	path   string
}

// layerStreamFiles lists the stream files LoadDirReport would read, in
// its order.
func layerStreamFiles(dir string) []streamFile {
	var out []streamFile
	for _, s := range loggen.AllStreams() {
		out = append(out, streamFile{s, dir + string(os.PathSeparator) + loggen.FileName(s)})
	}
	return out
}

// layerReadFile is the read step of LoadDirReport, spanned on its own.
func layerReadFile(path string, parent, op int) ([]byte, error) {
	id := trace.begin("logstore.read", parent, op)
	defer trace.end(id)
	return os.ReadFile(path)
}

// layerSplit is the line-split step of LoadDirReport, spanned on its own.
func layerSplit(data []byte, parent, op int) []string {
	id := trace.begin("logparse.split", parent, op)
	defer trace.end(id)
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

func layerParse(stream events.Stream, sched topology.SchedulerType, lines []string, parent, op int) ([]events.Record, logparse.StreamReport) {
	id := trace.begin("logparse.ParseLinesReport", parent, op)
	defer trace.end(id)
	return logparse.ParseLinesReport(stream, sched, lines)
}

func layerStoreNew(recs []events.Record, parent, op int) *logstore.Store {
	id := trace.begin("logstore.New", parent, op)
	defer trace.end(id)
	return logstore.New(recs)
}

func layerRun(store *logstore.Store, parent, op int) *core.Result {
	id := trace.begin("core.Run", parent, op)
	defer trace.end(id)
	return core.Run(store, core.DefaultConfig())
}

func layerRenderText(w io.Writer, label string, store *logstore.Store, rep *logstore.IngestReport, res *core.Result, parent, op int) error {
	id := trace.begin("render.Diagnose", parent, op)
	defer trace.end(id)
	return render.Diagnose(w, label, store, rep, res, false)
}

func layerRenderJSON(w io.Writer, res *core.Result, parent, op int) error {
	id := trace.begin("render.DiagnoseJSON", parent, op)
	defer trace.end(id)
	return render.DiagnoseJSON(w, res)
}

func layerNewEngine() *core.Engine { return core.NewEngine(core.DefaultConfig()) }

func layerEngineApply(e *core.Engine, recs []events.Record, parent, op int) {
	id := trace.begin("core.Engine.ApplyBatch", parent, op)
	defer trace.end(id)
	e.ApplyBatch(recs)
}

func layerEngineSnapshot(e *core.Engine, parent, op int) *core.Result {
	id := trace.begin("core.Engine.Snapshot", parent, op)
	defer trace.end(id)
	return e.Snapshot(0)
}

func layerNewLive() *logstore.Live { return logstore.NewLive() }

func layerLiveApply(l *logstore.Live, recs []events.Record, parent, op int) {
	id := trace.begin("logstore.Live.Apply", parent, op)
	defer trace.end(id)
	l.Apply(recs)
}

func layerLiveSnapshot(l *logstore.Live, parent, op int) *logstore.Store {
	id := trace.begin("logstore.Live.Snapshot", parent, op)
	defer trace.end(id)
	return l.Snapshot()
}

func layerNewWatcher(onDetection func(core.Detection)) *core.Watcher {
	return core.NewWatcher(core.DefaultConfig(), onDetection)
}

func layerWatcherFeed(w *core.Watcher, recs []events.Record, parent, op int) {
	id := trace.begin("core.Watcher.FeedAll", parent, op)
	defer trace.end(id)
	w.FeedAll(recs)
}

func layerWALOpen(dir string) (*wal.Log, error) {
	return wal.Open(dir, wal.Options{Sync: true})
}

func layerWALAppend(l *wal.Log, payload []byte, parent, op int) error {
	id := trace.begin("wal.Log.AppendBatch", parent, op)
	defer trace.end(id)
	return l.AppendBatch(payload)
}

func layerWALSync(l *wal.Log, parent, op int) error {
	id := trace.begin("wal.Log.Sync", parent, op)
	defer trace.end(id)
	return l.Sync()
}

func layerWALReplay(l *wal.Log, fn func([]byte) error, parent, op int) error {
	id := trace.begin("wal.Log.Replay", parent, op)
	defer trace.end(id)
	return l.Replay(fn)
}

func layerEncodeEntry(dst []byte, e replica.Entry, parent, op int) ([]byte, error) {
	id := trace.begin("replica.AppendEntry", parent, op)
	defer trace.end(id)
	return replica.AppendEntry(dst, e)
}

func layerDecodeEntry(payload []byte, parent, op int) (replica.Entry, error) {
	id := trace.begin("replica.DecodeEntry", parent, op)
	defer trace.end(id)
	return replica.DecodeEntry(payload)
}

// layerNewServer builds a server the way cmd/serve does under the
// benchmark's flags: replication WAL in walDir (none when empty),
// fsynced on every commit, everything else default.
func layerNewServer(sched topology.SchedulerType, walDir string) *server.Server {
	return server.New(server.Config{Scheduler: sched, ReplicationDir: walDir, ReplicationSync: true})
}

func layerServerSeed(s *server.Server, store *logstore.Store, rep *logstore.IngestReport, parent, op int) {
	id := trace.begin("server.Server.Seed", parent, op)
	defer trace.end(id)
	s.Seed(store, rep)
}

func layerServerOpenLog(s *server.Server, parent, op int) error {
	id := trace.begin("server.Server.OpenReplicationLog", parent, op)
	defer trace.end(id)
	return s.OpenReplicationLog()
}

func layerServerIngest(s *server.Server, batches []replica.Batch, parent, op int) (server.IngestResult, error) {
	id := trace.begin("server.Server.Ingest", parent, op)
	defer trace.end(id)
	return s.Ingest(batches)
}

func layerServerApply(s *server.Server, e replica.Entry, parent, op int) error {
	id := trace.begin("server.Server.Apply", parent, op)
	defer trace.end(id)
	return s.Apply(e)
}

// layerServe times one request through the server's HTTP handler,
// in-process.
func layerServe(h http.Handler, w http.ResponseWriter, r *http.Request, name string, parent, op int) {
	id := trace.begin(name, parent, op)
	defer trace.end(id)
	h.ServeHTTP(w, r)
}
