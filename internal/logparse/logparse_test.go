package logparse

import (
	"testing"
	"time"

	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/loggen"
	"hpcfail/internal/topology"
	"hpcfail/internal/workload"
)

var simStart = time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)

// roundTripScenario generates a small scenario, renders every stream and
// parses it back.
func roundTripScenario(t *testing.T, sched topology.SchedulerType) (orig []events.Record, parsed []events.Record) {
	t.Helper()
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 384, CabinetCols: 2, Scheduler: sched, Cray: true}
	p.Workload.MeanInterarrival = 30 * time.Minute
	scn, err := faultsim.Generate(p, simStart, simStart.Add(2*24*time.Hour), 5)
	if err != nil {
		t.Fatal(err)
	}
	byStream := map[events.Stream][]events.Record{}
	for _, r := range scn.Records {
		byStream[r.Stream] = append(byStream[r.Stream], r)
	}
	for stream, recs := range byStream {
		var lines []string
		for _, r := range recs {
			lines = append(lines, loggen.Render(r, sched)...)
		}
		got, errs := ParseLines(stream, sched, lines)
		for _, e := range errs {
			t.Errorf("parse error on %v: %v", stream, e)
		}
		if len(got) != len(recs) {
			t.Fatalf("stream %v: parsed %d records from %d originals", stream, len(got), len(recs))
		}
		orig = append(orig, recs...)
		parsed = append(parsed, got...)
	}
	return orig, parsed
}

func TestRoundTripSlurm(t *testing.T) {
	orig, parsed := roundTripScenario(t, topology.SchedulerSlurm)
	compareRoundTrip(t, orig, parsed)
}

func TestRoundTripTorque(t *testing.T) {
	orig, parsed := roundTripScenario(t, topology.SchedulerTorque)
	compareRoundTrip(t, orig, parsed)
}

func compareRoundTrip(t *testing.T, orig, parsed []events.Record) {
	t.Helper()
	mismatch := 0
	for i := range orig {
		o, p := orig[i], parsed[i]
		if !o.Time.Equal(p.Time) {
			t.Errorf("record %d time %v != %v", i, o.Time, p.Time)
			mismatch++
		}
		if o.Stream != p.Stream || o.Component != p.Component {
			t.Errorf("record %d identity mismatch: %v/%v vs %v/%v", i, o.Stream, o.Component, p.Stream, p.Component)
			mismatch++
		}
		if o.Category != p.Category {
			t.Errorf("record %d category %q -> %q (msg %q)", i, o.Category, p.Category, o.Msg)
			mismatch++
		}
		if o.Severity != p.Severity {
			t.Errorf("record %d severity %v -> %v (cat %q state %q)", i, o.Severity, p.Severity, o.Category, o.Field("state"))
			mismatch++
		}
		if o.JobID != p.JobID {
			t.Errorf("record %d jobID %d -> %d", i, o.JobID, p.JobID)
			mismatch++
		}
		// Messages survive verbatim except on the scheduler and ALPS
		// streams (raw formats carry no free text).
		if o.Stream != events.StreamScheduler && o.Stream != events.StreamALPS && o.Msg != p.Msg {
			t.Errorf("record %d msg %q -> %q", i, o.Msg, p.Msg)
			mismatch++
		}
		// Structured fields survive (trace loses offsets by design but
		// keeps symbols/modules — Encode form is identical).
		for _, kv := range o.Fields {
			if got := p.Field(kv.K); got != kv.V {
				t.Errorf("record %d field %s=%q -> %q (cat %q)", i, kv.K, kv.V, got, o.Category)
				mismatch++
			}
		}
		if mismatch > 25 {
			t.Fatal("too many mismatches; aborting")
		}
	}
}

func TestClassifyUnknown(t *testing.T) {
	if got := classify("some novel message nobody generated"); got != "unclassified" {
		t.Errorf("classify fallback = %q", got)
	}
}

func TestParseInternalToleratesGarbage(t *testing.T) {
	lines := []string{
		"",
		"complete garbage",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: <2> Kernel panic - not syncing",
		"2015-03-02T99:99:99 c0-0c0s1n2 kernel: bad timestamp",
	}
	recs, errs := ParseLines(events.StreamConsole, topology.SchedulerSlurm, lines)
	if len(recs) != 1 {
		t.Fatalf("parsed %d records, want 1", len(recs))
	}
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2: %v", len(errs), errs)
	}
	if recs[0].Category != "kernel_panic" || recs[0].Severity != events.SevCritical {
		t.Errorf("parsed record: %+v", recs[0])
	}
	for _, e := range errs {
		if e.Error() == "" {
			t.Error("empty error string")
		}
	}
}

func TestParseInternalTraceReassembly(t *testing.T) {
	lines := []string{
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: <3> BUG: unable to handle kernel paging request apid=42",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: Call Trace:",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel:  [<ffffffff810a1b2c>] oom_kill_process+0x12c/0x340",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel:  [<ffffffff810a1b2d>] out_of_memory+0x1/0x2",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: <6> node c0-0c0s1n2 boot: kernel up",
	}
	recs, errs := ParseLines(events.StreamConsole, topology.SchedulerSlurm, lines)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[0].JobID != 42 {
		t.Errorf("apid lost: %+v", recs[0])
	}
	if got := recs[0].Field("trace"); got != "oom_kill_process|out_of_memory" {
		t.Errorf("trace = %q", got)
	}
	if recs[1].Category != "node_boot" {
		t.Errorf("following record category = %q", recs[1].Category)
	}
}

func TestParseTaggedFieldsWithSpaces(t *testing.T) {
	line := "2015-03-02T10:15:30.000000Z c0-0c0s1n2 erd: ec_hw_errors WARNING ec_hw_errors: hw malfunction |detail=correctable error burst"
	recs, errs := ParseLines(events.StreamERD, topology.SchedulerSlurm, []string{line})
	if len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("recs=%d errs=%v", len(recs), errs)
	}
	if got := recs[0].Field("detail"); got != "correctable error burst" {
		t.Errorf("detail = %q", got)
	}
}

func TestParseSchedulerErrors(t *testing.T) {
	bad := []string{
		"not a line",
		"2015-03-02T10:15:30.000000Z slurmctld: JobId=zzz Action=job_start",
		"2015-03-02T10:15:30.000000Z slurmctld: JobId=5",
	}
	recs, errs := ParseLines(events.StreamScheduler, topology.SchedulerSlurm, bad)
	if len(recs) != 0 {
		t.Errorf("parsed %d records from garbage", len(recs))
	}
	if len(errs) != 3 {
		t.Errorf("got %d errors, want 3: %v", len(errs), errs)
	}
	badTorque := []string{"03/02/2015;E;xx", "garbage"}
	recs, errs = ParseLines(events.StreamScheduler, topology.SchedulerTorque, badTorque)
	if len(recs) != 0 || len(errs) != 2 {
		t.Errorf("torque garbage: recs=%d errs=%d", len(recs), len(errs))
	}
}

func TestJobsFromRecords(t *testing.T) {
	j := workload.Job{
		ID: 7, App: "cfd_solver", User: "user01",
		Start: simStart, End: simStart.Add(time.Hour),
		State: workload.StateCompleted, ExitCode: 0, ReqMemMB: 4096,
	}
	j.Nodes, _ = workload.ParseNodesString("c0-0c0s0n0,c0-0c0s0n1")
	recs := []events.Record{workload.StartEvent(&j), workload.EndEvent(&j)}
	jobs := JobsFromRecords(recs)
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	got := jobs[0]
	if got.ID != 7 || got.App != "cfd_solver" || got.User != "user01" ||
		!got.Start.Equal(j.Start) || !got.End.Equal(j.End) ||
		got.State != workload.StateCompleted || got.ReqMemMB != 4096 ||
		len(got.Nodes) != 2 {
		t.Errorf("reconstructed job: %+v", got)
	}
	// A start without end is dropped.
	onlyStart := []events.Record{workload.StartEvent(&j)}
	if len(JobsFromRecords(onlyStart)) != 0 {
		t.Error("job without end record should be dropped")
	}
}

func TestJobsFromRecordsRoundTripScenario(t *testing.T) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 192, CabinetCols: 2, Scheduler: topology.SchedulerSlurm, Cray: true}
	p.Workload.MeanInterarrival = time.Hour
	scn, err := faultsim.Generate(p, simStart, simStart.Add(24*time.Hour), 9)
	if err != nil {
		t.Fatal(err)
	}
	jobs := JobsFromRecords(scn.Records)
	if len(jobs) != len(scn.Jobs) {
		t.Fatalf("reconstructed %d jobs from %d", len(jobs), len(scn.Jobs))
	}
	byID := map[int64]workload.Job{}
	for _, j := range scn.Jobs {
		byID[j.ID] = j
	}
	for _, got := range jobs {
		want, ok := byID[got.ID]
		if !ok {
			t.Fatalf("unexpected job %d", got.ID)
		}
		if got.App != want.App || got.State != want.State || len(got.Nodes) != len(want.Nodes) {
			t.Errorf("job %d mismatch: %+v vs %+v", got.ID, got, want)
		}
	}
}

func TestIsKVToken(t *testing.T) {
	good := []string{"a=1", "action=admindown", "req_mem_mb=4096"}
	bad := []string{"=x", "a=", "A=1", "error", "order:4", "a-b=1"}
	for _, s := range good {
		if !isKVToken(s) {
			t.Errorf("isKVToken(%q) = false", s)
		}
	}
	for _, s := range bad {
		if isKVToken(s) {
			t.Errorf("isKVToken(%q) = true", s)
		}
	}
}

func TestParseUnknownStream(t *testing.T) {
	if _, errs := ParseLines(events.Stream(99), topology.SchedulerSlurm, nil); len(errs) != 1 {
		t.Error("unknown stream should produce an error")
	}
}
