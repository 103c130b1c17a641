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

func watchOpts(dir string) options {
	return options{logs: dir, sched: "slurm", alarms: true}
}

func TestRunWatch(t *testing.T) {
	ctx := context.Background()
	dir := writeTestLogs(t)
	if err := run(ctx, watchOpts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("run with alarms: %v", err)
	}
	o := watchOpts(dir)
	o.alarms = false
	if err := run(ctx, o, io.Discard, io.Discard); err != nil {
		t.Fatalf("run without alarms: %v", err)
	}
	if err := run(ctx, watchOpts(t.TempDir()), io.Discard, io.Discard); err == nil {
		t.Error("empty directory should error")
	}
	o = watchOpts(dir)
	o.resume = true
	if err := run(ctx, o, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-resume requires") {
		t.Errorf("-resume without state should error, got %v", err)
	}
}

func TestRunWatchChaosReplay(t *testing.T) {
	ctx := context.Background()
	dir := writeTestLogs(t)
	// Shuffled delivery absorbed by the reorder buffer.
	o := watchOpts(dir)
	o.reorder = time.Hour
	o.chaos = "mode=shuffle,intensity=0.5,seed=3"
	if err := run(ctx, o, io.Discard, io.Discard); err != nil {
		t.Fatalf("chaos replay: %v", err)
	}
	// Every mode at 20% intensity must survive without error.
	for _, mode := range []string{"drop", "truncate", "garble", "duplicate", "shuffle", "clockskew", "interleave"} {
		o := watchOpts(dir)
		o.reorder = time.Minute
		o.chaos = "mode=" + mode + ",intensity=0.2,seed=9"
		if err := run(ctx, o, io.Discard, io.Discard); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	o = watchOpts(dir)
	o.chaos = "mode=nope,intensity=0.2"
	if err := run(ctx, o, io.Discard, io.Discard); err == nil {
		t.Error("bad chaos spec should error")
	}
}

func TestRunWatchSurvivesDamagedDir(t *testing.T) {
	dir := writeTestLogs(t)
	// Empty one stream, delete another: the replay must still run.
	if err := os.WriteFile(filepath.Join(dir, "erd.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "controller-bc.log")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), watchOpts(dir), io.Discard, io.Discard); err != nil {
		t.Fatalf("damaged dir: %v", err)
	}
}

// cancelAfter cancels a context once n writes have passed through it —
// the deterministic stand-in for a SIGTERM landing mid-replay.
type cancelAfter struct {
	w      io.Writer
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.w.Write(p)
}

// eventLines strips the trailing summary so interrupted and resumed
// transcripts can be compared event for event.
func eventLines(out string) string {
	if i := strings.Index(out, "\nreplayed "); i >= 0 {
		return out[:i]
	}
	return out
}

// TestRunWatchCheckpointResume: interrupt the replay mid-flight, then
// resume from the snapshot — the concatenated event transcript must be
// identical to an uninterrupted run, and the final summary must count
// the whole corpus.
func TestRunWatchCheckpointResume(t *testing.T) {
	dir := writeTestLogs(t)
	for _, reorder := range []time.Duration{0, 10 * time.Minute} {
		var whole bytes.Buffer
		o := watchOpts(dir)
		o.reorder = reorder
		if err := run(context.Background(), o, &whole, io.Discard); err != nil {
			t.Fatalf("reference run: %v", err)
		}

		o.checkpoint = filepath.Join(t.TempDir(), "watch.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var first bytes.Buffer
		err := run(ctx, o, &cancelAfter{w: &first, n: 12, cancel: cancel}, io.Discard)
		if !errors.Is(err, hpcfail.ErrInterrupted) {
			t.Fatalf("interrupted run: want ErrInterrupted, got %v", err)
		}
		if _, err := os.Stat(o.checkpoint); err != nil {
			t.Fatalf("no shutdown checkpoint written: %v", err)
		}

		o.resume = true
		var second, notes bytes.Buffer
		if err := run(context.Background(), o, &second, &notes); err != nil {
			t.Fatalf("resume run: %v\nstderr: %s", err, notes.String())
		}
		if !strings.Contains(notes.String(), "restored watcher checkpoint") {
			t.Errorf("resume did not restore the checkpoint:\n%s", notes.String())
		}

		got := eventLines(first.String()) + eventLines(second.String())
		want := eventLines(whole.String())
		if got != want {
			t.Errorf("reorder %v: resumed transcript diverges from uninterrupted run\n--- got ---\n%s\n--- want ---\n%s",
				reorder, got, want)
		}
		// Cumulative accounting: the resumed summary covers the corpus.
		wantSummary := whole.String()[len(eventLines(whole.String())):]
		gotSummary := second.String()[len(eventLines(second.String())):]
		wantReplayed := strings.SplitN(wantSummary, ":", 2)[0]
		if !strings.HasPrefix(gotSummary, wantReplayed) {
			t.Errorf("reorder %v: resumed summary %q does not count the whole corpus (%q)",
				reorder, strings.TrimSpace(gotSummary), strings.TrimSpace(wantReplayed))
		}
	}
}

// TestRunWatchIngestInterruptMessaging: a signal that lands while the
// corpus loads stops the replay before its first record, saves the
// watcher checkpoint and names -checkpoint in the resume hint.
func TestRunWatchIngestInterruptMessaging(t *testing.T) {
	dir := writeTestLogs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := watchOpts(dir)
	o.checkpoint = filepath.Join(t.TempDir(), "watch.ckpt")
	var errOut bytes.Buffer
	err := run(ctx, o, io.Discard, &errOut)
	if !errors.Is(err, hpcfail.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if !strings.Contains(errOut.String(), "rerun with -resume -checkpoint "+o.checkpoint) {
		t.Errorf("stderr lacks resume hint:\n%s", errOut.String())
	}
	if strings.Contains(errOut.String(), "journal") {
		t.Errorf("resume hint names a journal:\n%s", errOut.String())
	}
	if _, err := os.Stat(o.checkpoint); err != nil {
		t.Fatalf("no shutdown checkpoint written: %v", err)
	}
}
