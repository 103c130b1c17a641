package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpcfail"
)

func writeTestLogs(t *testing.T) string {
	t.Helper()
	p, err := hpcfail.SystemProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec.Nodes = 384
	p.Spec.CabinetCols = 2
	p.FloodBladeIdx = nil
	p.FloodStopIdx = -1
	p.Workload.MeanInterarrival = 30 * time.Minute
	start := time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)
	scn, err := hpcfail.Simulate(p, start, start.AddDate(0, 0, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "logs")
	if err := hpcfail.WriteLogs(dir, scn); err != nil {
		t.Fatal(err)
	}
	return dir
}

func opts(dir string) options { return options{logs: dir, sched: "slurm"} }

func TestRunDiagnose(t *testing.T) {
	dir := writeTestLogs(t)
	if err := run(opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	o := opts(dir)
	o.full = true
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatalf("run -full: %v", err)
	}
}

func TestRunDiagnoseErrors(t *testing.T) {
	if err := run(opts(t.TempDir()), io.Discard, io.Discard); err == nil {
		t.Error("empty directory should error")
	}
	o := opts(writeTestLogs(t))
	o.sched = "pbspro"
	if err := run(o, io.Discard, io.Discard); err == nil {
		t.Error("unknown scheduler should error")
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeTestLogs(t)
	if err := runJSON(opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("runJSON: %v", err)
	}
}

// TestRunWritesHeapProfileBeforeReturning pins where -memprofile is
// taken: inside run/runJSON, with the store and result still reachable,
// not by main after they returned and were collected.
func TestRunWritesHeapProfileBeforeReturning(t *testing.T) {
	dir := writeTestLogs(t)
	for name, fn := range map[string]func(options, io.Writer, io.Writer) error{"run": run, "runJSON": runJSON} {
		o := opts(dir)
		o.memprofile = filepath.Join(t.TempDir(), name+".pprof")
		if err := fn(o, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi, err := os.Stat(o.memprofile); err != nil || fi.Size() == 0 {
			t.Errorf("%s left no heap profile at %s (err %v)", name, o.memprofile, err)
		}
	}
}

func TestRunDiagnoseDegraded(t *testing.T) {
	dir := writeTestLogs(t)
	// Kill the external and scheduler voices; diagnosis must degrade, not die.
	for _, f := range []string{"erd.log", "controller-bc.log", "controller-cc.log"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "scheduler.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if err := runJSON(opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("degraded runJSON: %v", err)
	}
}
