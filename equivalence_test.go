package hpcfail

// Shared fixtures for the differential suites (incremental_test.go,
// fuzz_incremental_test.go): a seeded failure-bearing corpus, its
// on-disk variants (chaos-damaged, streams removed) and full
// pipeline-output equality. The crash-resume property of the online
// replay (watch -checkpoint) lives here too.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/loggen"
	"hpcfail/internal/topology"
)

// equivScenario simulates a small but failure-bearing S1 corpus.
func equivScenario(t testing.TB, seed uint64) *Scenario {
	t.Helper()
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
	scn, err := Simulate(p, start, start.Add(2*24*time.Hour), seed)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// equivCorpus writes one corpus variant to disk and returns its dir.
type equivCorpus struct {
	name string
	// chaos is applied at render time (zero value = clean corpus).
	chaos ChaosConfig
	// removeStreams deletes these streams' files after writing, to
	// exercise degraded-mode parity.
	removeStreams []events.Stream
}

func (c equivCorpus) write(t testing.TB, scn *Scenario) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "logs")
	if c.chaos == (ChaosConfig{}) {
		if err := WriteLogs(dir, scn); err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := WriteLogsChaos(dir, scn, c.chaos); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c.removeStreams {
		if err := os.Remove(filepath.Join(dir, loggen.FileName(s))); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// sameResults asserts full pipeline-output equality.
func sameResults(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Fatalf("detections diverge: %d vs %d", len(got.Detections), len(want.Detections))
	}
	if !reflect.DeepEqual(got.Diagnoses, want.Diagnoses) {
		for i := range got.Diagnoses {
			if !reflect.DeepEqual(got.Diagnoses[i], want.Diagnoses[i]) {
				t.Fatalf("diagnosis %d diverges:\n got %+v\nwant %+v", i, got.Diagnoses[i], want.Diagnoses[i])
			}
		}
		t.Fatalf("diagnoses diverge: %d vs %d", len(got.Diagnoses), len(want.Diagnoses))
	}
	if !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Fatalf("job tables diverge: %d vs %d jobs", len(got.Jobs), len(want.Jobs))
	}
	if got.Degradation != want.Degradation {
		t.Fatalf("degradation diverges: %+v vs %+v", got.Degradation, want.Degradation)
	}
	if !reflect.DeepEqual(got.Store.All(), want.Store.All()) {
		t.Fatalf("store contents diverge: %d vs %d records", got.Store.Len(), want.Store.Len())
	}
}

// replayOutput is what a replay prints: confirmed failures and
// early-warning alarms, in emission order. At holds, for each emission
// in order, the position of the record whose feed triggered it.
type replayOutput struct {
	Detections []Detection
	Alarms     []core.Alarm
	At         []int
}

// replay feeds recs through a watcher the way cmd/watch does, killing
// the process after the first n records for each n in crashAt: the
// dying watcher writes its checkpoint, and a fresh one restores it and
// re-enters at the record count the checkpoint says it had fed. It
// returns everything emitted across all incarnations; with no crashes
// it is the uninterrupted replay.
func replay(t *testing.T, recs []events.Record, crashAt ...int) replayOutput {
	t.Helper()
	path := filepath.Join(t.TempDir(), "watch.ckpt")
	var out replayOutput
	cur := 0
	start := func() *Watcher {
		w := NewWatcher(func(d Detection) {
			out.Detections = append(out.Detections, d)
			out.At = append(out.At, cur)
		})
		w.OnAlarm = func(a core.Alarm) {
			out.Alarms = append(out.Alarms, a)
			out.At = append(out.At, cur)
		}
		return w
	}
	feed := func(w *Watcher, stop int) {
		for cur = w.Stats().Fed; cur < stop; cur++ {
			w.Feed(recs[cur])
		}
	}
	w := start()
	for _, n := range crashAt {
		feed(w, n)
		if err := SaveWatcherCheckpoint(path, w); err != nil {
			t.Fatal(err)
		}
		w = start()
		ok, err := LoadWatcherCheckpoint(path, w)
		if err != nil || !ok {
			t.Fatalf("crash@%d: restore = %v, %v", n, ok, err)
		}
		if got := w.Stats().Fed; got != n {
			t.Fatalf("crash@%d: restored watcher has fed %d records, want %d", n, got, n)
		}
	}
	feed(w, len(recs))
	w.Flush()
	return out
}

// crashBefore is the crash point just ahead of the record that
// triggered the kill-th emission of the uninterrupted replay want: the
// emission then depends on state that only the checkpoint carries
// across the crash.
func crashBefore(t *testing.T, want replayOutput, kill int) int {
	t.Helper()
	if kill >= len(want.At) {
		t.Fatalf("kill@%d: the replay emits only %d times — matrix vacuous", kill, len(want.At))
	}
	return want.At[kill]
}

// sameReplay asserts a resumed replay printed what the uninterrupted
// one did, and that the reference is not vacuous.
func sameReplay(t *testing.T, got, want replayOutput) {
	t.Helper()
	if len(want.Detections) == 0 || len(want.Alarms) == 0 {
		t.Fatalf("reference replay emits %d detections, %d alarms — property vacuous",
			len(want.Detections), len(want.Alarms))
	}
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Fatalf("detections diverge across checkpoint/resume: %d vs %d", len(got.Detections), len(want.Detections))
	}
	if !reflect.DeepEqual(got.Alarms, want.Alarms) {
		t.Fatalf("alarms diverge across checkpoint/resume: %d vs %d", len(got.Alarms), len(want.Alarms))
	}
}

// TestCrashResumeEquivalence is the crash-safety property of the online
// replay: a watcher killed just before the record behind its kill-th
// emission and resumed from its checkpoint emits exactly the detections and alarms
// of an uninterrupted replay — none repeated, none missed — over a
// store that loads and diagnoses identically at any GOMAXPROCS. The
// matrix crosses kill points × GOMAXPROCS; run under -race. "none"
// names the fault-free arm (no process faults are injected).
func TestCrashResumeEquivalence(t *testing.T) {
	scn := equivScenario(t, 23)
	dir := equivCorpus{name: "chaos-mixed",
		chaos: ChaosConfig{Garble: 0.06, Truncate: 0.04, Seed: 17}}.write(t, scn)
	wantStore, wantRep, err := LoadLogsReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	wantRes := Diagnose(wantStore)
	want := replay(t, wantStore.All())

	t.Run("none", func(t *testing.T) {
		for _, gmp := range []int{1, 2, 8} {
			for _, kill := range []int{0, 5, 13} {
				t.Run(fmt.Sprintf("gomaxprocs%d/kill%d", gmp, kill), func(t *testing.T) {
					old := runtime.GOMAXPROCS(gmp)
					defer runtime.GOMAXPROCS(old)

					store, rep, err := LoadLogsReport(dir, topology.SchedulerSlurm)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rep, wantRep) {
						t.Fatalf("ingest ledger diverges: %s vs %s", rep, wantRep)
					}
					sameResults(t, Diagnose(store), wantRes)
					got := replay(t, store.All(), crashBefore(t, want, kill))
					sameReplay(t, got, want)
				})
			}
		}
	})
}

// TestCrashResumeDoubleKill exercises a crash of the recovery itself:
// kill, resume, kill the resumed replay, resume again.
func TestCrashResumeDoubleKill(t *testing.T) {
	scn := equivScenario(t, 23)
	store, _, err := LoadLogsReport(equivCorpus{name: "clean"}.write(t, scn), topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	want := replay(t, store.All())
	got := replay(t, store.All(), crashBefore(t, want, 3), crashBefore(t, want, 4))
	sameReplay(t, got, want)
}
