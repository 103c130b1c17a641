package hpcfail

import (
	"path/filepath"
	"testing"
	"time"

	"hpcfail/internal/topology"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	p, err := SystemProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec.Nodes = 384
	p.Spec.CabinetCols = 2
	p.Workload.MeanInterarrival = 30 * time.Minute
	p.FloodBladeIdx = nil
	p.FloodStopIdx = -1
	start := time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)
	scn, err := Simulate(p, start, start.AddDate(0, 0, 5), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(scn.Failures) == 0 {
		t.Fatal("no failures simulated")
	}

	// In-memory path.
	res := Diagnose(StoreRecords(scn.Records))
	if len(res.Detections) == 0 {
		t.Fatal("no failures detected")
	}

	// Disk path: write raw logs, load them back, diagnose again.
	dir := filepath.Join(t.TempDir(), "logs")
	if err := WriteLogs(dir, scn); err != nil {
		t.Fatal(err)
	}
	store, parseErrs, err := LoadLogs(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	if len(parseErrs) != 0 {
		t.Fatalf("parse errors: %v", parseErrs[0])
	}
	res2 := DiagnoseWith(store, DefaultPipelineConfig())
	if len(res2.Detections) != len(res.Detections) {
		t.Errorf("disk path detected %d failures, memory path %d",
			len(res2.Detections), len(res.Detections))
	}

	// Lead-time aggregation is reachable from the facade.
	sum := SummarizeLeadTimes(res.Diagnoses)
	if sum.Total != len(res.Diagnoses) {
		t.Error("lead-time summary total mismatch")
	}

	// Recommendations derive from the result.
	if recs := Recommend(res); len(recs) == 0 {
		t.Error("no recommendations from a failure-bearing result")
	}

	// The streaming watcher finds the same failures.
	streamed := 0
	w := NewWatcher(func(Detection) { streamed++ })
	w.FeedAll(scn.Records)
	if streamed != len(res.Detections) {
		t.Errorf("watcher streamed %d failures, batch found %d", streamed, len(res.Detections))
	}
}

// TestAllSystemsEndToEnd runs every Table I system through the full
// simulate → write → load → diagnose path and checks the reproduction
// contract: clean parsing and near-perfect detection recall, for both
// scheduler dialects and for the non-Cray S5.
func TestAllSystemsEndToEnd(t *testing.T) {
	start := time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)
	for _, id := range []string{"S1", "S2", "S3", "S4", "S5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			p, err := SystemProfile(id)
			if err != nil {
				t.Fatal(err)
			}
			if p.Spec.Nodes > 384 {
				p.Spec.Nodes = 384
				p.Spec.CabinetCols = 2
			}
			p.FloodBladeIdx = nil
			p.FloodStopIdx = -1
			p.Workload.MeanInterarrival = 45 * time.Minute
			scn, err := Simulate(p, start, start.AddDate(0, 0, 4), 77)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "logs")
			if err := WriteLogs(dir, scn); err != nil {
				t.Fatal(err)
			}
			store, parseErrs, err := LoadLogs(dir, p.Spec.Scheduler)
			if err != nil {
				t.Fatal(err)
			}
			if len(parseErrs) != 0 {
				t.Fatalf("%d parse errors, first: %v", len(parseErrs), parseErrs[0])
			}
			res := Diagnose(store)
			if len(scn.Failures) == 0 {
				t.Skip("no failures in the short window")
			}
			recall := float64(len(res.Detections)) / float64(len(scn.Failures))
			if recall < 0.95 || recall > 1.05 {
				t.Errorf("detection recall = %.2f (%d of %d)", recall,
					len(res.Detections), len(scn.Failures))
			}
		})
	}
}

func TestSystemsTable(t *testing.T) {
	systems := Systems()
	if len(systems) != 5 {
		t.Fatalf("got %d systems", len(systems))
	}
	if systems[0].ID != "S1" || systems[4].ID != "S5" {
		t.Error("system order wrong")
	}
}

func TestCauseConstantsDistinct(t *testing.T) {
	seen := map[Cause]bool{}
	for _, c := range []Cause{CauseUnknown, CauseMCE, CauseCPUCorruption,
		CauseHardwareOther, CauseKernelBug, CauseCPUStall, CauseFilesystemBug,
		CauseOOM, CauseAppExit, CauseSegFault, CauseHungTask} {
		if seen[c] {
			t.Fatalf("duplicate cause constant %v", c)
		}
		seen[c] = true
	}
}
