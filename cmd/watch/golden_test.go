package main

// Golden-output tests for the online replay over the committed fixture
// corpora in ../../testdata. Regenerate with:
//
//	go test ./cmd/watch -update

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

const (
	fixtureClean    = "../../testdata/corpus-clean"
	fixtureDegraded = "../../testdata/corpus-degraded"
)

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s (got %d bytes, want %d)\n--- got ---\n%s",
			path, len(got), len(want), got)
	}
}

func TestGoldenWatch(t *testing.T) {
	cases := []struct {
		name     string
		o        options
		wantNote string
	}{
		{name: "watch-clean", o: options{logs: fixtureClean, sched: "slurm", alarms: true}},
		{name: "watch-degraded", o: options{logs: fixtureDegraded, sched: "slurm", alarms: true},
			wantNote: "degraded ingest:"},
		{name: "watch-chaos-replay", o: options{logs: fixtureClean, sched: "slurm", alarms: true,
			reorder: time.Hour, chaos: "mode=shuffle,intensity=0.3,seed=11"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), c.o, &buf, io.Discard); err != nil {
				t.Fatal(err)
			}
			if c.wantNote != "" && !bytes.Contains(buf.Bytes(), []byte(c.wantNote)) {
				t.Errorf("output lacks expected note %q", c.wantNote)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}
