package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/render"
	"hpcfail/internal/topology"
)

// TestDiagnoseGoldenParity is the service's output contract:
// GET /v1/diagnose over a seeded corpus returns byte-for-byte what
// cmd/diagnose prints for the same directory — verified against the
// CLI's committed golden files, so the CLI goldens and this test can
// only move together.
func TestDiagnoseGoldenParity(t *testing.T) {
	cases := []struct {
		golden  string // file under cmd/diagnose/testdata
		fixture string
		query   string
	}{
		{"diagnose-clean", fixtureClean, ""},
		{"diagnose-full", fixtureClean, "?full=true"},
		{"diagnose-json", fixtureClean, "?format=json"},
		{"diagnose-degraded", fixtureDegraded, ""},
		{"diagnose-degraded-json", fixtureDegraded, "?format=json"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("../../cmd/diagnose/testdata", c.golden+".golden"))
			if err != nil {
				t.Fatalf("CLI golden missing (run go test ./cmd/diagnose -update first): %v", err)
			}
			s := seedServer(t, c.fixture, Config{})
			rec := get(t, s.Handler(), "/v1/diagnose"+c.query)
			if rec.Code != http.StatusOK {
				t.Fatalf("diagnose = %d: %s", rec.Code, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("response diverges from cmd/diagnose output (%d vs %d bytes)\n--- got ---\n%s",
					rec.Body.Len(), len(want), rec.Body.String())
			}

			// The cached second serving must be the same bytes.
			rec = get(t, s.Handler(), "/v1/diagnose"+c.query)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Error("cached response diverges from the first serving")
			}
		})
	}
}

// TestDiagnoseGoldenParityAcrossIngests extends the output contract to
// a live ingest stream: after every accepted batch — including
// out-of-order arrivals, an exact duplicate line and a quarantined line
// — the text and JSON bytes served at the new watermark must equal a
// from-scratch pipeline + render over the corpus accumulated so far, as
// if the server had been seeded with everything at once. This pins the
// incremental delta path to the batch pipeline at every intermediate
// watermark, not just the final one.
func TestDiagnoseGoldenParityAcrossIngests(t *testing.T) {
	store, rep, err := logstore.LoadDirReport(fixtureClean, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.Seed(store, rep)
	h := s.Handler()

	// The independent reference: records in arrival order and the merged
	// ingest ledger, maintained exactly as the server maintains its own.
	accum := append([]events.Record(nil), store.All()...)
	wantRep := cloneReport(rep)

	check := func(wm uint64) {
		t.Helper()
		wantStore := logstore.New(accum)
		res := core.Run(wantStore, core.DefaultConfig())
		var txt, js bytes.Buffer
		if err := render.Diagnose(&txt, "the served corpus", wantStore, wantRep, res, false); err != nil {
			t.Fatal(err)
		}
		if err := render.DiagnoseJSON(&js, res); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			query string
			want  []byte
		}{{"", txt.Bytes()}, {"?format=json", js.Bytes()}} {
			rec := get(t, h, "/v1/diagnose"+c.query)
			if rec.Code != http.StatusOK {
				t.Fatalf("watermark %d %q: diagnose = %d: %s", wm, c.query, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-Hpcfail-Watermark"); got != strconv.FormatUint(wm, 10) {
				t.Errorf("watermark %d %q: served watermark header %q", wm, c.query, got)
			}
			if !bytes.Equal(rec.Body.Bytes(), c.want) {
				t.Errorf("watermark %d %q: served bytes diverge from batch pipeline (%d vs %d bytes)",
					wm, c.query, rec.Body.Len(), len(c.want))
			}
		}
	}

	check(1)

	steps := [][]IngestBatch{
		// A benign burst after the corpus tail.
		{{Stream: "console", Lines: []string{
			"2015-03-03T08:00:00.000000Z c0-0c0s0n0 kernel: <4> EDAC MC0: corrected memory error on DIMM (benign burst)",
		}}},
		// A fresh terminal plus the job that was running on the node —
		// new detection and new job-table entry in one request.
		{
			{Stream: "scheduler", Lines: []string{
				"2015-03-03T08:10:00.000000Z slurmctld: JobId=901 Action=job_start App=qa_probe User=user01 ReqMem=64M NodeList=c0-0c1s2n1",
				"2015-03-03T08:45:00.000000Z slurmctld: JobId=901 Action=job_end App=qa_probe State=NODE_FAIL ExitCode=1 NodeList=c0-0c1s2n1",
			}},
			{Stream: "console", Lines: []string{
				"2015-03-03T08:30:00.000000Z c0-0c1s2n1 kernel: <2> node c0-0c1s2n1 halting: system shutdown",
			}},
		},
		// Out-of-order arrivals timestamped before already-served records,
		// plus an exact duplicate of an earlier ingested line.
		{
			{Stream: "consumer", Lines: []string{
				"2015-03-03T08:31:00.000000Z c0-0c1s2n1 consumer: <6> node state transition for c0-0c1s2n1 state=down",
				"2015-03-02T12:00:00.000000Z c0-0c0s0n0 consumer: <6> node state transition for c0-0c0s0n0 state=up",
			}},
			{Stream: "console", Lines: []string{
				"2015-03-03T08:00:00.000000Z c0-0c0s0n0 kernel: <4> EDAC MC0: corrected memory error on DIMM (benign burst)",
			}},
		},
		// A line the parser quarantines: the ledger accounting must stay
		// identical on both sides too.
		{{Stream: "console", Lines: []string{"not a log line at all"}}},
	}
	for _, batches := range steps {
		ires, err := s.Ingest(batches)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			stream, err := events.ParseStream(b.Stream)
			if err != nil {
				t.Fatal(err)
			}
			recs, srep := logparse.ParseLinesReport(stream, topology.SchedulerSlurm, b.Lines)
			accum = append(accum, recs...)
			wantRep.MergeStream(srep)
		}
		check(ires.Watermark)
	}
}
