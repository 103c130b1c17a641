package core

import (
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
)

func sameAsRun(t *testing.T, route string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Detections, want.Detections) || !reflect.DeepEqual(got.Diagnoses, want.Diagnoses) ||
		!reflect.DeepEqual(got.Jobs, want.Jobs) || got.Degradation != want.Degradation ||
		!reflect.DeepEqual(got.Store.All(), want.Store.All()) {
		t.Fatalf("%s: snapshot differs from Run over the same records (%d/%d detections, %d/%d jobs)",
			route, len(got.Detections), len(want.Detections), len(got.Jobs), len(want.Jobs))
	}
}

// TestEngineSeedRoutes holds every way records can enter an engine —
// adoption of a batch-built store, a first batch, a second store handed
// to an engine that already holds one — against Run, and checks what
// LastApply reports for each.
func TestEngineSeedRoutes(t *testing.T) {
	_, store := buildScenario(t, 2, 11)
	all := store.All()
	want := Run(store, DefaultConfig())
	if len(want.Detections) == 0 || len(want.Jobs) == 0 {
		t.Fatal("scenario yields no detections or no jobs — test vacuous")
	}
	wholeCorpus := ApplyStats{Records: len(all), NodesRefolded: nodesOf(want.Detections),
		JobsRefolded: jobsOf(all), Rediagnosed: len(want.Detections)}

	adopted := NewEngine(DefaultConfig())
	adopted.Seed(store)
	sameAsRun(t, "Seed", adopted.Snapshot(0), want)
	if got := adopted.LastApply(); got != wholeCorpus {
		t.Errorf("LastApply after Seed = %+v, want %+v", got, wholeCorpus)
	}

	first := NewEngine(DefaultConfig())
	first.ApplyBatch(all)
	sameAsRun(t, "first ApplyBatch", first.Snapshot(0), want)
	if got := first.LastApply(); got != wholeCorpus {
		t.Errorf("LastApply after the first ApplyBatch = %+v, want %+v", got, wholeCorpus)
	}
	first.ApplyBatch(nil)
	if got := first.LastApply(); got != (ApplyStats{}) {
		t.Errorf("LastApply after an empty batch = %+v, want zero", got)
	}

	twice := NewEngine(DefaultConfig())
	twice.Seed(logstore.New(nil))
	if twice.Len() != 0 || len(twice.Snapshot(0).Detections) != 0 {
		t.Fatal("seeding an empty store left records behind")
	}
	half := len(all) / 2
	twice.Seed(logstore.New(all[:half]))
	twice.Seed(logstore.New(all[half:]))
	sameAsRun(t, "Seed on a seeded engine", twice.Snapshot(0), want)
	if got := twice.LastApply().Records; got != len(all)-half {
		t.Errorf("LastApply after the second Seed counts %d records, want %d", got, len(all)-half)
	}
}

func nodesOf(dets []Detection) int {
	seen := map[string]bool{}
	for _, d := range dets {
		seen[d.Node.String()] = true
	}
	return len(seen)
}

func jobsOf(recs []events.Record) int {
	seen := map[int64]bool{}
	for i := range recs {
		if recs[i].Stream == events.StreamScheduler && recs[i].JobID != 0 {
			seen[recs[i].JobID] = true
		}
	}
	return len(seen)
}

// TestEngineRepublishesJobsOnlyOnChange: a scheduler record that folds
// its job to the value it already had, at the position it already had,
// leaves the published job table alone — the next snapshot hands out
// the very same slice — while a job that completes gets a fresh table
// and earlier snapshots keep theirs.
func TestEngineRepublishesJobsOnlyOnChange(t *testing.T) {
	_, store := buildScenario(t, 2, 11)
	e := NewEngine(DefaultConfig())
	e.Seed(store)
	before := e.Snapshot(0)

	var dup events.Record
	for _, r := range store.Category("job_end").Records() {
		if r.JobID == before.Jobs[len(before.Jobs)-1].ID {
			dup = r
		}
	}
	if dup.JobID == 0 {
		t.Fatal("no job_end record for the last complete job")
	}
	e.ApplyBatch([]events.Record{dup}) // a duplicate delivery
	if got := e.LastApply().JobsRefolded; got != 1 {
		t.Fatalf("duplicate job_end refolded %d jobs, want 1", got)
	}
	same := e.Snapshot(0)
	if &same.Jobs[0] != &before.Jobs[0] || len(same.Jobs) != len(before.Jobs) {
		t.Error("job table republished although no job changed")
	}

	start, end := dup, dup
	start.JobID, end.JobID = 1<<40, 1<<40
	start.Category = "job_start"
	start.Time = end.Time.Add(-time.Hour)
	e.ApplyBatch([]events.Record{start})
	if running := e.Snapshot(0); &running.Jobs[0] != &before.Jobs[0] {
		t.Error("job table republished for a job that is still running")
	}
	e.ApplyBatch([]events.Record{end})
	after := e.Snapshot(0)
	if len(after.Jobs) != len(before.Jobs)+1 || len(same.Jobs) != len(before.Jobs) {
		t.Fatalf("completed job: table has %d jobs (earlier snapshot %d), want %d (%d)",
			len(after.Jobs), len(same.Jobs), len(before.Jobs)+1, len(before.Jobs))
	}
	all := append(append([]events.Record(nil), store.All()...), dup, start, end)
	sameAsRun(t, "after the job deltas", after, Run(logstore.New(all), DefaultConfig()))
}
