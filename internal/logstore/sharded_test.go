package logstore

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/chaos"
	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/topology"
)

func shardScenario(t testing.TB) *faultsim.Scenario {
	t.Helper()
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 384, CabinetCols: 2,
		Scheduler: topology.SchedulerSlurm, Cray: true}
	p.FloodBladeIdx = nil
	p.FloodStopIdx = -1
	p.Workload.MeanInterarrival = 30 * time.Minute
	start := time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)
	scn, err := faultsim.Generate(p, start, start.Add(2*24*time.Hour), 5)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func TestShardedMergedMatchesNew(t *testing.T) {
	scn := shardScenario(t)
	want := New(scn.Records)
	for _, shards := range []int{1, 3, 8} {
		ss := NewShardedFromRecords(scn.Records, shards)
		if ss.Len() != want.Len() {
			t.Fatalf("%d shards: Len %d want %d", shards, ss.Len(), want.Len())
		}
		if !reflect.DeepEqual(ss.All(), want.All()) {
			t.Fatalf("%d shards: merged record sequence diverges from New", shards)
		}
	}
}

func TestShardedWindowsMatchMerged(t *testing.T) {
	scn := shardScenario(t)
	seq := New(scn.Records)
	ss := NewShardedFromRecords(scn.Records, 8)
	first, last, ok := seq.Span()
	if !ok {
		t.Fatal("empty store")
	}
	mid := first.Add(last.Sub(first) / 2)
	for _, node := range seq.Nodes() {
		got := ss.NodeWindow(node, first, mid).Records()
		want := seq.NodeWindow(node, first, mid).Records()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NodeWindow(%s) diverges: %d vs %d records", node, len(got), len(want))
		}
		blade := node.BladeName()
		if !reflect.DeepEqual(ss.BladeWindow(blade, mid, last).Records(), seq.BladeWindow(blade, mid, last).Records()) {
			t.Fatalf("BladeWindow(%s) diverges", blade)
		}
		cab := node.CabinetName()
		if !reflect.DeepEqual(ss.CabinetWindow(cab, first, last).Records(), seq.CabinetWindow(cab, first, last).Records()) {
			t.Fatalf("CabinetWindow(%s) diverges", cab)
		}
	}
}

func TestShardedSideChannelsOrdered(t *testing.T) {
	scn := shardScenario(t)
	seq := New(scn.Records)
	ss := NewShardedFromRecords(scn.Records, 8)
	// Scheduler/ALPS side-channels must equal the merged store filtered
	// by stream, in order.
	var schedFromMerged, alpsFromMerged []int
	for i, r := range seq.All() {
		switch r.Stream {
		case events.StreamScheduler:
			schedFromMerged = append(schedFromMerged, i)
		case events.StreamALPS:
			alpsFromMerged = append(alpsFromMerged, i)
		}
	}
	if len(ss.SchedulerRecords()) != len(schedFromMerged) {
		t.Fatalf("scheduler side-channel has %d records, merged filter %d",
			len(ss.SchedulerRecords()), len(schedFromMerged))
	}
	for i, j := range schedFromMerged {
		if !reflect.DeepEqual(ss.SchedulerRecords()[i], seq.All()[j]) {
			t.Fatalf("scheduler record %d diverges", i)
		}
	}
	if len(ss.ALPSRecords()) != len(alpsFromMerged) {
		t.Fatalf("alps side-channel has %d records, merged filter %d",
			len(ss.ALPSRecords()), len(alpsFromMerged))
	}
	for i, j := range alpsFromMerged {
		if !reflect.DeepEqual(ss.ALPSRecords()[i], seq.All()[j]) {
			t.Fatalf("alps record %d diverges", i)
		}
	}
}

// reportsEqual compares IngestReports field by field, rendering errors
// to strings (error values don't DeepEqual across construction sites).
func reportsEqual(t *testing.T, got, want *IngestReport) {
	t.Helper()
	if !reflect.DeepEqual(got.Skipped, want.Skipped) {
		t.Fatalf("Skipped diverges: %v vs %v", got.Skipped, want.Skipped)
	}
	if !reflect.DeepEqual(got.Missing, want.Missing) {
		t.Fatalf("Missing diverges: %v vs %v", got.Missing, want.Missing)
	}
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("stream ledger count %d vs %d", len(got.Streams), len(want.Streams))
	}
	for i := range got.Streams {
		g, w := got.Streams[i], want.Streams[i]
		if g.Stream != w.Stream || g.Lines != w.Lines || g.Parsed != w.Parsed ||
			g.Quarantined != w.Quarantined || g.Reordered != w.Reordered {
			t.Fatalf("stream %v ledger diverges: %+v vs %+v", g.Stream, g, w)
		}
		if !reflect.DeepEqual(g.Samples, w.Samples) {
			t.Fatalf("stream %v samples diverge: %q vs %q", g.Stream, g.Samples, w.Samples)
		}
		if len(g.Errs) != len(w.Errs) {
			t.Fatalf("stream %v err count %d vs %d", g.Stream, len(g.Errs), len(w.Errs))
		}
		for j := range g.Errs {
			if g.Errs[j].Error() != w.Errs[j].Error() {
				t.Fatalf("stream %v err %d: %v vs %v", g.Stream, j, g.Errs[j], w.Errs[j])
			}
		}
	}
}

func TestStreamLoadDirMatchesLoadDirReport(t *testing.T) {
	scn := shardScenario(t)
	dir := filepath.Join(t.TempDir(), "logs")
	if err := WriteDir(dir, scn.Records, topology.SchedulerSlurm); err != nil {
		t.Fatal(err)
	}
	want, wantRep, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []StreamOptions{
		{},
		{Workers: 1, Shards: 1, ChunkLines: 100},
		{Workers: 4, Shards: 5, ChunkLines: 999, Queue: 2},
	} {
		ss, rep, err := StreamLoadDir(dir, topology.SchedulerSlurm, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ss.All(), want.All()) {
			t.Fatalf("opts %+v: streamed store diverges from sequential (%d vs %d records)",
				opts, ss.Len(), want.Len())
		}
		reportsEqual(t, rep, wantRep)
	}
}

func TestStreamLoadDirDamagedCorpus(t *testing.T) {
	scn := shardScenario(t)
	dir := filepath.Join(t.TempDir(), "logs")
	ccfg := chaos.Config{Garble: 0.05, Truncate: 0.05, Drop: 0.05, Duplicate: 0.05, Seed: 13}
	if _, err := WriteDirChaos(dir, scn.Records, topology.SchedulerSlurm, ccfg); err != nil {
		t.Fatal(err)
	}
	want, wantRep, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	ss, rep, err := StreamLoadDir(dir, topology.SchedulerSlurm, StreamOptions{Workers: 3, Shards: 4, ChunkLines: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss.All(), want.All()) {
		t.Fatalf("damaged corpus: streamed store diverges (%d vs %d records)", ss.Len(), want.Len())
	}
	reportsEqual(t, rep, wantRep)
	if rep.TotalQuarantined() == 0 {
		t.Fatal("chaos corpus produced no quarantined lines — test not exercising damage")
	}
}

func TestStreamLoadDirNotADirectory(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := writeFiles(filepath.Dir(f), map[string][]string{"file": {"x"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := StreamLoadDir(f, topology.SchedulerSlurm, StreamOptions{}); err == nil {
		t.Fatal("want error for non-directory path")
	}
}
