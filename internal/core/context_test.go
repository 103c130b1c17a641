package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

func TestRunContextMatchesRun(t *testing.T) {
	_, store := buildScenario(t, 2, 7)
	want := Run(store, DefaultConfig())
	got, err := RunContext(context.Background(), store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Errorf("RunContext detections diverge from Run (%d vs %d)", len(got.Detections), len(want.Detections))
	}
	if !reflect.DeepEqual(got.Diagnoses, want.Diagnoses) {
		t.Errorf("RunContext diagnoses diverge from Run")
	}
	if got.Degradation != want.Degradation {
		t.Errorf("RunContext degradation %+v, want %+v", got.Degradation, want.Degradation)
	}
}

func TestRunContextCancelled(t *testing.T) {
	_, store := buildScenario(t, 2, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, store, DefaultConfig())
	if err == nil {
		t.Fatal("cancelled RunContext returned no error")
	}
	if res != nil {
		t.Errorf("cancelled RunContext returned a partial result")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	scn, store := buildScenario(t, 2, 7)
	_ = scn
	var dets []Detection
	w := NewWatcher(DefaultConfig(), func(d Detection) { dets = append(dets, d) })
	w.FeedAll(store.All()[:store.Len()/2])

	path := filepath.Join(t.TempDir(), "watch.ckpt")
	if err := SaveSnapshotFile(path, w); err != nil {
		t.Fatal(err)
	}
	w2 := NewWatcher(DefaultConfig(), func(Detection) {})
	restored, err := LoadSnapshotFile(path, w2)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("checkpoint existed but restored=false")
	}
	if !reflect.DeepEqual(w.Snapshot(), w2.Snapshot()) {
		t.Error("restored watcher state diverges from the saved one")
	}

	// A missing checkpoint is a clean no-restore, not an error.
	w3 := NewWatcher(DefaultConfig(), func(Detection) {})
	restored, err = LoadSnapshotFile(filepath.Join(t.TempDir(), "absent"), w3)
	if err != nil || restored {
		t.Fatalf("missing checkpoint: restored=%v err=%v, want false nil", restored, err)
	}
}
