package main

// Golden-output tests over the committed fixture corpora in
// ../../testdata. Regenerate expectations after an intentional output
// change with:
//
//	go test ./cmd/diagnose -update

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
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

func TestGoldenDiagnose(t *testing.T) {
	cases := []struct {
		name     string
		o        options
		json     bool
		wantNote string // substring the output must contain ("" = none)
	}{
		{name: "diagnose-clean", o: options{logs: fixtureClean, sched: "slurm"}},
		{name: "diagnose-full", o: options{logs: fixtureClean, sched: "slurm", full: true}},
		{name: "diagnose-json", o: options{logs: fixtureClean, sched: "slurm"}, json: true},
		{name: "diagnose-degraded", o: options{logs: fixtureDegraded, sched: "slurm"},
			wantNote: "DEGRADED: degraded input: scheduler log absent"},
		{name: "diagnose-degraded-json", o: options{logs: fixtureDegraded, sched: "slurm"},
			json: true, wantNote: `"degraded":true`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			var err error
			if c.json {
				err = runJSON(c.o, &buf, io.Discard)
			} else {
				err = run(c.o, &buf, io.Discard)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.wantNote != "" && !bytes.Contains(buf.Bytes(), []byte(c.wantNote)) {
				t.Errorf("output lacks expected note %q", c.wantNote)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}
