package hpcfail

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its artifact
// through the full simulate→diagnose pipeline at reduced scale and
// reports the artifact's headline rows on the first iteration (run with
// -v or look at cmd/experiments for the full tables).
//
//	go test -bench=. -benchmem
//
// Additional micro-benchmarks cover the pipeline's hot paths: event
// generation, log rendering/parsing, store indexing and diagnosis.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/experiments"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/topology"
	"hpcfail/internal/wal"
)

// benchCfg keeps artifact benchmarks fast while exercising the whole
// stack.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 42, Scale: 0.08, Quick: true}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			fmt.Println(res.String())
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)      { benchExperiment(b, "table5") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkS3Breakdown(b *testing.B) { benchExperiment(b, "s3breakdown") }
func BenchmarkSWOShare(b *testing.B)    { benchExperiment(b, "swo") }

// Ablation benchmarks (design-choice studies from DESIGN.md).

func BenchmarkAblationWindow(b *testing.B)     { benchExperiment(b, "ablation-window") }
func BenchmarkAblationTrace(b *testing.B)      { benchExperiment(b, "ablation-trace") }
func BenchmarkAblationCorruption(b *testing.B) { benchExperiment(b, "ablation-corruption") }

// Extension benchmarks (Table VI recommendations made quantitative).

func BenchmarkExtensionCheckpoint(b *testing.B) { benchExperiment(b, "extension-checkpoint") }
func BenchmarkExtensionRecommend(b *testing.B)  { benchExperiment(b, "extension-recommend") }
func BenchmarkExtensionMLTrace(b *testing.B)    { benchExperiment(b, "extension-mltrace") }

// Experiment batch benchmarks: the cmd/experiments -all path, run
// sequentially vs on the worker pool.

func BenchmarkExperimentsSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkExperimentsParallel(b *testing.B)   { benchRunAll(b, 0) }

func benchRunAll(b *testing.B, jobs int) {
	b.Helper()
	ids := []string{"fig12", "fig16", "table5", "swo"}
	exps := make([]experiments.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range experiments.RunAll(exps, cfg, jobs) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

// Pipeline micro-benchmarks.

var benchStart = time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)

func benchScenario(b *testing.B) *faultsim.Scenario {
	b.Helper()
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		b.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 768, CabinetCols: 2,
		Scheduler: topology.SchedulerSlurm, Cray: true}
	p.FloodBladeIdx = nil
	p.FloodStopIdx = -1
	p.Workload.MeanInterarrival = 10 * time.Minute
	scn, err := faultsim.Generate(p, benchStart, benchStart.Add(7*24*time.Hour), 42)
	if err != nil {
		b.Fatal(err)
	}
	return scn
}

// BenchmarkSimulateWeek measures generating one simulated cluster-week.
func BenchmarkSimulateWeek(b *testing.B) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		b.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 768, CabinetCols: 2,
		Scheduler: topology.SchedulerSlurm, Cray: true}
	p.FloodBladeIdx = nil
	p.FloodStopIdx = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultsim.Generate(p, benchStart, benchStart.Add(7*24*time.Hour), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderLogs measures text rendering of a cluster-week.
func BenchmarkRenderLogs(b *testing.B) {
	scn := benchScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines := loggen.RenderAll(scn.Records, topology.SchedulerSlurm)
		if len(lines) == 0 {
			b.Fatal("no lines")
		}
	}
}

// BenchmarkParseLogs measures parsing a cluster-week back from text.
func BenchmarkParseLogs(b *testing.B) {
	scn := benchScenario(b)
	byStream := map[events.Stream][]string{}
	for _, r := range scn.Records {
		byStream[r.Stream] = append(byStream[r.Stream], loggen.Render(r, topology.SchedulerSlurm)...)
	}
	total := 0
	for _, ls := range byStream {
		total += len(ls)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for stream, lines := range byStream {
			recs, _ := logparse.ParseLines(stream, topology.SchedulerSlurm, lines)
			n += len(recs)
		}
		if n == 0 {
			b.Fatal("parsed nothing")
		}
	}
	b.ReportMetric(float64(total), "lines/op")
}

// BenchmarkStoreBuild measures indexing a cluster-week of records.
func BenchmarkStoreBuild(b *testing.B) {
	scn := benchScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if logstore.New(scn.Records).Len() == 0 {
			b.Fatal("empty store")
		}
	}
}

// BenchmarkDiagnoseWeek measures the full pipeline over an indexed
// cluster-week.
func BenchmarkDiagnoseWeek(b *testing.B) {
	scn := benchScenario(b)
	store := logstore.New(scn.Records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(store, core.DefaultConfig())
		if len(res.Detections) == 0 {
			b.Fatal("no detections")
		}
	}
}

// BenchmarkDiagnoseWeekParallel measures the worker-pool variant on the
// same input (compare with BenchmarkDiagnoseWeek for the scaling).
func BenchmarkDiagnoseWeekParallel(b *testing.B) {
	scn := benchScenario(b)
	store := logstore.New(scn.Records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.RunParallel(store, core.DefaultConfig(), 0)
		if len(res.Detections) == 0 {
			b.Fatal("no detections")
		}
	}
}

// BenchmarkWindowQuery measures the store's blade-window join, the
// pipeline's innermost operation.
func BenchmarkWindowQuery(b *testing.B) {
	scn := benchScenario(b)
	store := logstore.New(scn.Records)
	blades := scn.Cluster.Blades()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blade := blades[i%len(blades)]
		at := benchStart.Add(time.Duration(i%7*24) * time.Hour)
		_ = store.BladeWindow(blade, at, at.Add(time.Hour))
	}
}

func BenchmarkAblationPredictor(b *testing.B) { benchExperiment(b, "ablation-predictor") }

// Sharded streaming-ingestion benchmarks. The regression gate compares
// BenchmarkLoadDir (sequential, whole-corpus slurp) against
// BenchmarkStreamLoadDir (chunked parallel parse into a ShardedStore):
// at GOMAXPROCS >= 8 the streamed loader is expected to run >= 2x
// faster with no increase in allocations per parsed line (divide
// allocs/op by lines/op, or diff the two with benchstat — see README).
// BENCH_pr2.json records a reference -benchtime=1x run.

// benchCorpusDir renders a cluster-week to disk once and counts its
// log lines for the per-line metrics.
func benchCorpusDir(b *testing.B) (string, int) {
	b.Helper()
	scn := benchScenario(b)
	dir := filepath.Join(b.TempDir(), "logs")
	if err := logstore.WriteDir(dir, scn.Records, topology.SchedulerSlurm); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	lines := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		lines += logparse.NewLineScanner(string(data)).CountLines()
	}
	return dir, lines
}

// BenchmarkLoadDir measures the sequential directory loader end to end
// (read, parse, index).
func BenchmarkLoadDir(b *testing.B) {
	dir, lines := benchCorpusDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, _, err := logstore.LoadDirReport(dir, topology.SchedulerSlurm)
		if err != nil {
			b.Fatal(err)
		}
		if store.Len() == 0 {
			b.Fatal("empty store")
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

// BenchmarkStreamLoadDir measures the sharded streaming loader on the
// same corpus (bounded worker pool, per-shard indexing, background
// merge). The timed region includes waiting for the merged view so the
// comparison against BenchmarkLoadDir is end-to-end fair.
func BenchmarkStreamLoadDir(b *testing.B) {
	dir, lines := benchCorpusDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, _, err := logstore.StreamLoadDir(dir, topology.SchedulerSlurm, logstore.StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Merged().Len() == 0 {
			b.Fatal("empty store")
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

// Crash-safety benchmarks. BenchmarkStreamLoadDirWAL prices the
// checkpoint journal against BenchmarkStreamLoadDir: the journal
// serialises every parsed record (that is what makes a resumed load
// byte-identical without re-reading damaged inputs), so expect roughly
// corpus-proportional overhead — the durability/speed trade-off is the
// chunk size and Options.Sync, not a constant tax.
// BenchmarkResumeLoadDir prices picking a half-finished load back up:
// journal replay for the completed half plus live parsing for the rest.
// BENCH_pr3.json records a reference -benchtime=1x run of both.

// BenchmarkStreamLoadDirWAL measures the streaming loader with a
// checkpoint journal attached (fresh WAL per iteration).
func BenchmarkStreamLoadDirWAL(b *testing.B) {
	dir, lines := benchCorpusDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wdir := filepath.Join(b.TempDir(), fmt.Sprintf("wal-%d", i))
		b.StartTimer()
		j, err := wal.Open(wdir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ss, _, err := logstore.StreamLoadDir(dir, topology.SchedulerSlurm,
			logstore.StreamOptions{Journal: j})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Merged().Len() == 0 {
			b.Fatal("empty store")
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

// BenchmarkResumeLoadDir measures resuming a load that was killed about
// halfway (the kill and journal setup are outside the timed region).
func BenchmarkResumeLoadDir(b *testing.B) {
	dir, lines := benchCorpusDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wdir := filepath.Join(b.TempDir(), fmt.Sprintf("wal-%d", i))
		j, err := wal.Open(wdir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		kctx, cancel := context.WithCancel(context.Background())
		chunks := 0
		_, _, err = logstore.StreamLoadDirContext(kctx, dir, topology.SchedulerSlurm,
			logstore.StreamOptions{Journal: j, ChunkLines: 512,
				OnChunk: func(string, int) {
					if chunks++; chunks == 12 {
						cancel()
					}
				}})
		cancel()
		if !errors.Is(err, logstore.ErrInterrupted) {
			b.Fatalf("setup kill: want ErrInterrupted, got %v", err)
		}
		b.StartTimer()
		ss, _, err := logstore.ResumeLoadDir(context.Background(), dir, topology.SchedulerSlurm,
			logstore.StreamOptions{Journal: j})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Merged().Len() == 0 {
			b.Fatal("empty store")
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

// BenchmarkIncrementalApply prices one small delta (16 records) applied
// to an incremental engine already holding a full cluster-week,
// including the Snapshot that makes the result servable — the
// post-ingest cost the online service pays on the first query at a new
// watermark. Compare with BenchmarkDiagnoseWeek, which re-pays the
// whole corpus for the same delta. BENCH_pr7.json records a reference
// run; the CI serving gate compares against it.
func BenchmarkIncrementalApply(b *testing.B) {
	scn := benchScenario(b)
	all := append([]events.Record(nil), scn.Records...)
	events.SortByTime(all)
	seedN := len(all) - len(all)/20 // hold back ~5% as the live tail
	eng := core.NewEngine(core.DefaultConfig())
	eng.Seed(logstore.New(all[:seedN])) // the route the server boots by
	tail := all[seedN:]
	const delta = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * delta) % len(tail)
		end := off + delta
		if end > len(tail) {
			end = len(tail)
		}
		eng.ApplyBatch(tail[off:end])
		if res := eng.Snapshot(0); len(res.Detections) == 0 {
			b.Fatal("no detections")
		}
	}
}

// BenchmarkShardedStoreBuild measures sharding + per-shard indexing +
// k-way merge of an in-memory cluster-week (counterpart of
// BenchmarkStoreBuild).
func BenchmarkShardedStoreBuild(b *testing.B) {
	scn := benchScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := logstore.NewShardedFromRecords(scn.Records, 0)
		if ss.Merged().Len() == 0 {
			b.Fatal("empty store")
		}
	}
}

// BenchmarkRunSharded measures the shard-consuming pipeline over a
// sealed sharded store (compare with BenchmarkDiagnoseWeekParallel).
func BenchmarkRunSharded(b *testing.B) {
	scn := benchScenario(b)
	ss := logstore.NewShardedFromRecords(scn.Records, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.RunSharded(ss, core.DefaultConfig(), 0)
		if len(res.Detections) == 0 {
			b.Fatal("no detections")
		}
	}
}
