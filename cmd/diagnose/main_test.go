package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpcfail"
	"hpcfail/internal/topology"
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
	ctx := context.Background()
	dir := writeTestLogs(t)
	if err := run(ctx, opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	o := opts(dir)
	o.full = true
	if err := run(ctx, o, io.Discard, io.Discard); err != nil {
		t.Fatalf("run -full: %v", err)
	}
	o = opts(dir)
	o.stream = true
	o.workers = 3
	if err := run(ctx, o, io.Discard, io.Discard); err != nil {
		t.Fatalf("run -stream: %v", err)
	}
}

func TestRunDiagnoseErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, opts(t.TempDir()), io.Discard, io.Discard); err == nil {
		t.Error("empty directory should error")
	}
	o := opts(writeTestLogs(t))
	o.sched = "pbspro"
	if err := run(ctx, o, io.Discard, io.Discard); err == nil {
		t.Error("unknown scheduler should error")
	}
	o = opts(writeTestLogs(t))
	o.resume = true
	if err := run(ctx, o, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-resume requires -wal") {
		t.Errorf("-resume without -wal should error, got %v", err)
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeTestLogs(t)
	if err := runJSON(context.Background(), opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("runJSON: %v", err)
	}
}

// TestRunWritesHeapProfileBeforeReturning pins where -memprofile is
// taken: inside run/runJSON, with the store and result still reachable,
// not by main after they returned and were collected.
func TestRunWritesHeapProfileBeforeReturning(t *testing.T) {
	dir := writeTestLogs(t)
	for name, fn := range map[string]func(context.Context, options, io.Writer, io.Writer) error{"run": run, "runJSON": runJSON} {
		o := opts(dir)
		o.memprofile = filepath.Join(t.TempDir(), name+".pprof")
		if err := fn(context.Background(), o, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi, err := os.Stat(o.memprofile); err != nil || fi.Size() == 0 {
			t.Errorf("%s left no heap profile at %s (err %v)", name, o.memprofile, err)
		}
	}
}

func TestRunDiagnoseDegraded(t *testing.T) {
	ctx := context.Background()
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
	if err := run(ctx, opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if err := runJSON(ctx, opts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("degraded runJSON: %v", err)
	}
}

// TestRunDiagnoseWALCompletes: a journaled run completes and its output
// matches the plain streaming run byte for byte.
func TestRunDiagnoseWALCompletes(t *testing.T) {
	ctx := context.Background()
	dir := writeTestLogs(t)
	render := func(o options) string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(ctx, o, &buf, io.Discard); err != nil {
			t.Fatalf("run %+v: %v", o, err)
		}
		return buf.String()
	}
	o := opts(dir)
	o.stream = true
	o.workers = 2
	want := render(o)
	o.wal = filepath.Join(t.TempDir(), "wal")
	if got := render(o); got != want {
		t.Errorf("journaled output diverges from plain -stream (%d vs %d bytes)", len(got), len(want))
	}
	// The journal completed; -resume replays it and must match again.
	o.resume = true
	if got := render(o); got != want {
		t.Errorf("-resume over a completed journal diverges (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRunDiagnoseResumeAfterKill: kill a journaled load mid-flight (via
// the library's chunk hook, the deterministic stand-in for SIGTERM),
// then run the command with -resume — output must be identical to an
// uninterrupted run.
func TestRunDiagnoseResumeAfterKill(t *testing.T) {
	ctx := context.Background()
	dir := writeTestLogs(t)

	var want bytes.Buffer
	o := opts(dir)
	o.stream = true
	o.workers = 2
	if err := run(ctx, o, &want, io.Discard); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	walDir := filepath.Join(t.TempDir(), "wal")
	j, err := hpcfail.OpenWAL(walDir, hpcfail.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunks := 0
	_, rep, err := hpcfail.LoadLogsStreamContext(kctx, dir, topology.SchedulerSlurm, hpcfail.StreamOptions{
		Workers: 2, ChunkLines: 100, Journal: j,
		OnChunk: func(string, int) {
			if chunks++; chunks == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, hpcfail.ErrInterrupted) {
		t.Fatalf("kill run: want ErrInterrupted, got %v", err)
	}
	if rep == nil {
		t.Fatal("interrupted load returned no partial report")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	o.wal = walDir
	o.resume = true
	var got, noise bytes.Buffer
	if err := run(ctx, o, &got, &noise); err != nil {
		t.Fatalf("resume run: %v\nstderr: %s", err, noise.String())
	}
	if got.String() != want.String() {
		t.Errorf("resumed output diverges from uninterrupted run (%d vs %d bytes)\n--- got ---\n%s",
			got.Len(), want.Len(), got.String())
	}
}

// TestRunDiagnoseInterruptedMessaging: an interrupted run surfaces the
// partial ledger and the resume hint on stderr and returns the
// interruption (non-zero exit in main).
func TestRunDiagnoseInterruptedMessaging(t *testing.T) {
	dir := writeTestLogs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already interrupted before the first chunk
	o := opts(dir)
	o.stream = true
	o.wal = filepath.Join(t.TempDir(), "wal")
	var errOut bytes.Buffer
	err := run(ctx, o, io.Discard, &errOut)
	if !errors.Is(err, hpcfail.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if !strings.Contains(errOut.String(), "rerun with -resume") {
		t.Errorf("stderr lacks resume hint:\n%s", errOut.String())
	}
}
