package logstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/logparse"
	"hpcfail/internal/topology"
)

var t0 = time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)

func rec(offset time.Duration, comp string, cat string) events.Record {
	var c cname.Name
	if comp != "" {
		c = cname.MustParse(comp)
	}
	return events.Record{Time: t0.Add(offset), Stream: events.StreamConsole, Component: c, Category: cat, Msg: cat}
}

func testStore() *Store {
	return New([]events.Record{
		rec(3*time.Minute, "c0-0c0s1n2", "mce"),
		rec(1*time.Minute, "c0-0c0s1n0", "kernel_panic"),
		rec(2*time.Minute, "c0-0c0s1", "ec_bc_heartbeat_fault"), // blade-level
		rec(4*time.Minute, "c0-0", "cabinet_power_fault"),       // cabinet-level
		rec(5*time.Minute, "c1-0c2s7n3", "mce"),
		{Time: t0.Add(6 * time.Minute), Stream: events.StreamScheduler, Category: "job_start", JobID: 42},
	})
}

func TestSortedAndLen(t *testing.T) {
	s := testStore()
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	prev := time.Time{}
	for _, r := range s.All() {
		if r.Time.Before(prev) {
			t.Fatal("not sorted")
		}
		prev = r.Time
	}
	if s.At(0).Category != "kernel_panic" {
		t.Errorf("At(0) = %+v", s.At(0))
	}
}

func TestWindow(t *testing.T) {
	s := testStore()
	got := s.Window(t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	if len(got) != 3 {
		t.Fatalf("Window returned %d records", len(got))
	}
	for _, r := range got {
		if r.Time.Before(t0.Add(2*time.Minute)) || !r.Time.Before(t0.Add(5*time.Minute)) {
			t.Errorf("out of window: %v", r.Time)
		}
	}
	if len(s.Window(t0.Add(time.Hour), t0.Add(2*time.Hour))) != 0 {
		t.Error("empty window should be empty")
	}
}

func TestNodeWindow(t *testing.T) {
	s := testStore()
	node := cname.MustParse("c0-0c0s1n2")
	got := s.NodeWindow(node, t0, t0.Add(time.Hour))
	if got.Len() != 1 || got.At(0).Category != "mce" {
		t.Fatalf("NodeWindow = %v", got.Records())
	}
	// Blade-level record must NOT appear under a node query.
	if s.NodeWindow(cname.MustParse("c0-0c0s1n1"), t0, t0.Add(time.Hour)).Len() != 0 {
		t.Error("node query leaked other records")
	}
}

func TestBladeWindowIncludesNodesAndBlade(t *testing.T) {
	s := testStore()
	blade := cname.MustParse("c0-0c0s1")
	got := s.BladeWindow(blade, t0, t0.Add(time.Hour))
	// Two node records on the blade + the blade-level BCHF.
	if got.Len() != 3 {
		t.Fatalf("BladeWindow = %d records: %v", got.Len(), got.Records())
	}
}

func TestCabinetWindow(t *testing.T) {
	s := testStore()
	cab := cname.MustParse("c0-0")
	got := s.CabinetWindow(cab, t0, t0.Add(time.Hour))
	// Everything in cabinet c0-0: 2 node records + blade record +
	// cabinet record = 4.
	if got.Len() != 4 {
		t.Fatalf("CabinetWindow = %d records", got.Len())
	}
}

func TestCategoryQueries(t *testing.T) {
	s := testStore()
	if got := s.Category("mce"); got.Len() != 2 {
		t.Fatalf("Category(mce) = %d", got.Len())
	}
	if got := s.CategoryWindow("mce", t0, t0.Add(4*time.Minute)); got.Len() != 1 {
		t.Fatalf("CategoryWindow = %d", got.Len())
	}
	if s.Category("nope").Len() != 0 {
		t.Error("unknown category should be empty")
	}
}

func TestJobIndex(t *testing.T) {
	s := testStore()
	if got := s.Job(42); got.Len() != 1 || got.At(0).Category != "job_start" {
		t.Fatalf("Job(42) = %v", got.Records())
	}
	if s.Job(7).Len() != 0 {
		t.Error("unknown job should be empty")
	}
}

func TestNodesAndSpan(t *testing.T) {
	s := testStore()
	nodes := s.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("Nodes = %v", nodes)
	}
	first, last, ok := s.Span()
	if !ok || !first.Equal(t0.Add(time.Minute)) || !last.Equal(t0.Add(6*time.Minute)) {
		t.Errorf("Span = %v %v %v", first, last, ok)
	}
	var empty Store
	if _, _, ok := empty.Span(); ok {
		t.Error("empty store span should report !ok")
	}
}

func TestWriteLoadDirRoundTrip(t *testing.T) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 192, CabinetCols: 2, Scheduler: topology.SchedulerSlurm, Cray: true}
	p.Workload.MeanInterarrival = time.Hour
	scn, err := faultsim.Generate(p, t0, t0.Add(24*time.Hour), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "logs")
	if err := WriteDir(dir, scn.Records, topology.SchedulerSlurm); err != nil {
		t.Fatal(err)
	}
	store, parseErrs, err := LoadDir(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	if len(parseErrs) != 0 {
		t.Fatalf("parse errors: %v", parseErrs[:min(3, len(parseErrs))])
	}
	if store.Len() != len(scn.Records) {
		t.Fatalf("loaded %d of %d records", store.Len(), len(scn.Records))
	}
	// Spot-check a category survives the disk round trip.
	if store.Category("ec_node_heartbeat_fault").Len() == 0 && len(scn.NHFs) > 0 {
		t.Error("NHF records lost on disk round trip")
	}
}

func TestLoadDirMissing(t *testing.T) {
	store, errs, err := LoadDir(filepath.Join(t.TempDir(), "empty"), topology.SchedulerSlurm)
	if err != nil || len(errs) != 0 {
		t.Fatalf("LoadDir on missing dir: %v %v", errs, err)
	}
	if store.Len() != 0 {
		t.Error("missing dir should load empty store")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writeScenarioDir renders a small scenario to disk for ingest tests.
func writeScenarioDir(t *testing.T) (string, int) {
	t.Helper()
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 192, CabinetCols: 2, Scheduler: topology.SchedulerSlurm, Cray: true}
	p.Workload.MeanInterarrival = time.Hour
	scn, err := faultsim.Generate(p, t0, t0.Add(24*time.Hour), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "logs")
	if err := WriteDir(dir, scn.Records, topology.SchedulerSlurm); err != nil {
		t.Fatal(err)
	}
	return dir, len(scn.Records)
}

func TestLoadDirReportClean(t *testing.T) {
	dir, want := writeScenarioDir(t)
	store, rep, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != want || rep.TotalParsed() != want {
		t.Fatalf("parsed %d (report %d), want %d", store.Len(), rep.TotalParsed(), want)
	}
	if rep.Degraded() || rep.TotalQuarantined() != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("clean load reported degradation: %s", rep)
	}
	if rep.TotalReordered() != 0 {
		t.Errorf("clean load reported %d reordered", rep.TotalReordered())
	}
}

func TestLoadDirReportSkipsEmptyAndUnreadable(t *testing.T) {
	dir, _ := writeScenarioDir(t)
	// Empty out one file and make another unreadable.
	if err := os.WriteFile(filepath.Join(dir, "erd.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(filepath.Join(dir, "console.log"), 0o000); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(filepath.Join(dir, "console.log"), 0o644) })
	store, rep, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatalf("load must survive bad files: %v", err)
	}
	if os.Getuid() == 0 {
		// Root reads through file modes; only the empty-file skip fires.
		if len(rep.Skipped) < 1 {
			t.Fatalf("skipped = %+v, want at least the empty file", rep.Skipped)
		}
	} else if len(rep.Skipped) != 2 {
		t.Fatalf("skipped = %+v, want empty + unreadable", rep.Skipped)
	}
	if store.Len() == 0 {
		t.Error("partial store should retain the readable streams")
	}
	if !rep.Degraded() {
		t.Error("skips must mark the load degraded")
	}
	if len(rep.Warnings()) == 0 {
		t.Error("warnings should surface skipped files")
	}
}

func TestLoadDirReportQuarantinesMalformedLines(t *testing.T) {
	dir, _ := writeScenarioDir(t)
	path := filepath.Join(dir, "messages.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := "not a log line at all\n@@@###\n" + string(data)
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	store, rep, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalQuarantined() != 2 {
		t.Fatalf("quarantined %d, want 2", rep.TotalQuarantined())
	}
	var msgs *logparse.StreamReport
	for i := range rep.Streams {
		if rep.Streams[i].Stream == events.StreamMessages {
			msgs = &rep.Streams[i]
		}
	}
	if msgs == nil || msgs.Quarantined != 2 || len(msgs.Samples) != 2 {
		t.Fatalf("messages stream report = %+v", msgs)
	}
	if store.Len() == 0 {
		t.Error("quarantine must not drop the parseable remainder")
	}
	if errs := rep.ParseErrors(); len(errs) != 2 {
		t.Errorf("ParseErrors = %d, want 2", len(errs))
	}
}

func TestLoadDirReportCountsReordered(t *testing.T) {
	recs := []events.Record{
		rec(1*time.Minute, "c0-0c0s1n0", "mce"),
		rec(2*time.Minute, "c0-0c0s1n0", "mce"),
		rec(3*time.Minute, "c0-0c0s1n0", "mce"),
	}
	dir := filepath.Join(t.TempDir(), "logs")
	if err := WriteDir(dir, recs, topology.SchedulerSlurm); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "console.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	lines[0], lines[2] = lines[2], lines[0]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, rep, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalReordered() == 0 {
		t.Error("swapped lines should count as reordered")
	}
	// The store still sorts them.
	if store.At(0).Time.After(store.At(1).Time) {
		t.Error("store must re-sort out-of-order input")
	}
}

func TestLoadDirReportNotADirectory(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDirReport(f, topology.SchedulerSlurm); err == nil {
		t.Error("loading a plain file as a directory should error")
	}
}

// TestWindowQueriesMatchLinearScan checks the indexed queries against a
// brute-force filter over a realistic scenario.
func TestWindowQueriesMatchLinearScan(t *testing.T) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 384, CabinetCols: 2,
		Scheduler: topology.SchedulerSlurm, Fabric: topology.AriesDragonfly, Cray: true}
	p.Workload.MeanInterarrival = time.Hour
	scn, err := faultsim.Generate(p, t0, t0.Add(2*24*time.Hour), 17)
	if err != nil {
		t.Fatal(err)
	}
	s := New(scn.Records)
	from, to := t0.Add(6*time.Hour), t0.Add(30*time.Hour)

	linear := func(keep func(r *events.Record) bool) int {
		n := 0
		for i := range scn.Records {
			r := &scn.Records[i]
			if !r.Time.Before(from) && r.Time.Before(to) && keep(r) {
				n++
			}
		}
		return n
	}

	if got, want := len(s.Window(from, to)), linear(func(*events.Record) bool { return true }); got != want {
		t.Errorf("Window = %d, linear = %d", got, want)
	}
	node := scn.Cluster.Node(7)
	if got, want := s.NodeWindow(node, from, to).Len(),
		linear(func(r *events.Record) bool { return r.Component == node }); got != want {
		t.Errorf("NodeWindow = %d, linear = %d", got, want)
	}
	blade := node.BladeName()
	if got, want := s.BladeWindow(blade, from, to).Len(),
		linear(func(r *events.Record) bool { return blade.Contains(r.Component) }); got != want {
		t.Errorf("BladeWindow = %d, linear = %d", got, want)
	}
	cab := node.CabinetName()
	if got, want := s.CabinetWindow(cab, from, to).Len(),
		linear(func(r *events.Record) bool { return cab.Contains(r.Component) }); got != want {
		t.Errorf("CabinetWindow = %d, linear = %d", got, want)
	}
	if got, want := s.CategoryWindow("mce", from, to).Len(),
		linear(func(r *events.Record) bool { return r.Category == "mce" }); got != want {
		t.Errorf("CategoryWindow = %d, linear = %d", got, want)
	}
}
