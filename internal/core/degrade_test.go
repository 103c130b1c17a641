package core

import (
	"strings"
	"testing"

	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
)

func TestAssessDegradationClean(t *testing.T) {
	_, store := buildScenario(t, 7, 307)
	deg := AssessDegradation(store)
	if deg.Degraded() {
		t.Fatalf("full scenario assessed degraded: %+v", deg)
	}
	if deg.Factor() != 1 || deg.Note() != "" {
		t.Errorf("clean corpus: factor=%v note=%q", deg.Factor(), deg.Note())
	}
}

func TestRunDegradedWithoutExternalAndScheduler(t *testing.T) {
	_, store := buildScenario(t, 7, 307)
	clean := Run(store, DefaultConfig())
	if clean.Degradation.Degraded() {
		t.Fatal("clean run marked degraded")
	}

	// Silence the external and scheduler voices — the chaos stream-loss
	// shape — and diagnose what remains.
	var kept []events.Record
	for _, r := range store.All() {
		if r.Stream.External() || r.Stream == events.StreamScheduler {
			continue
		}
		kept = append(kept, r)
	}
	res := Run(logstore.New(kept), DefaultConfig())

	deg := res.Degradation
	if !deg.MissingExternal || !deg.MissingScheduler || deg.MissingInternal || deg.MissingALPS {
		t.Fatalf("degradation = %+v", deg)
	}
	if len(res.Detections) != len(clean.Detections) {
		t.Fatalf("internal-only detection count changed: %d vs %d",
			len(res.Detections), len(clean.Detections))
	}
	for i, d := range res.Diagnoses {
		if !d.Degraded {
			t.Fatalf("diagnosis %d not marked degraded", i)
		}
		if !strings.Contains(d.Note, "external") || !strings.Contains(d.Note, "scheduler") {
			t.Fatalf("diagnosis %d note = %q", i, d.Note)
		}
		if want := clean.Diagnoses[i].Confidence * deg.Factor(); !closeTo(d.Confidence, want) {
			t.Errorf("diagnosis %d confidence = %v, want %v", i, d.Confidence, want)
		}
		if len(d.ExternalIndicators) != 0 {
			t.Errorf("diagnosis %d has external indicators without an external stream", i)
		}
	}
	if f := deg.Factor(); f >= 1 || f <= 0 {
		t.Errorf("degraded factor = %v, want in (0,1)", f)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
