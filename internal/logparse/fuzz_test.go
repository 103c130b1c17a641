package logparse

// Fuzz targets: parsers must never panic on arbitrary input — they run
// over production logs with missing and mangled lines (the paper's
// challenge #1). Under plain `go test` these execute the seed corpus;
// run `go test -fuzz FuzzParseInternal ./internal/logparse` to explore.

import (
	"testing"

	"hpcfail/internal/chaos"
	"hpcfail/internal/events"
	"hpcfail/internal/topology"
)

func FuzzParseInternal(f *testing.F) {
	f.Add("2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: <2> Kernel panic - not syncing")
	f.Add("2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: Call Trace:")
	f.Add("2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel:  [<ffffffff810a1b2c>] oom_kill_process+0x12c/0x340")
	f.Add("2015-03-02T10:15:30.000000Z c0-0c0s1n2 nhc: <4> NHC: test memory FAILED on c0-0c0s1n2 test=memory result=fail apid=42")
	f.Add("")
	f.Add("garbage with spaces and : colons")
	f.Add("2015-03-02T10:15:30.000000Z - kernel: <6> no component")
	f.Fuzz(func(t *testing.T, line string) {
		recs, _ := ParseLines(events.StreamConsole, topology.SchedulerSlurm, []string{line})
		for _, r := range recs {
			if r.Stream != events.StreamConsole {
				t.Fatalf("wrong stream: %+v", r)
			}
		}
	})
}

func FuzzParseTagged(f *testing.F) {
	f.Add("2015-03-02T10:15:30.000000Z c0-0c0s1n2 erd: ec_hw_errors WARNING msg |detail=two words k=v")
	f.Add("2015-03-02T10:15:30.000000Z c0-0c0s1 bcsysd: ec_bc_heartbeat_fault ERROR blade fault")
	f.Add("x y z")
	f.Add("2015-03-02T10:15:30.000000Z c0-0 ccsysd: cat NOTASEVERITY msg")
	f.Fuzz(func(t *testing.T, line string) {
		ParseLines(events.StreamERD, topology.SchedulerSlurm, []string{line})
	})
}

func FuzzParseSlurm(f *testing.F) {
	f.Add("2015-03-02T10:15:30.000000Z slurmctld: JobId=397 Action=job_end State=COMPLETED ExitCode=0 NodeList=c0-0c0s0n[0-3]")
	f.Add("2015-03-02T10:15:30.000000Z slurmctld: JobId=1 Action=job_start App=x User=y ReqMem=4096M")
	f.Add("JobId=zzz")
	f.Fuzz(func(t *testing.T, line string) {
		ParseLines(events.StreamScheduler, topology.SchedulerSlurm, []string{line})
	})
}

func FuzzParseTorque(f *testing.F) {
	f.Add("03/02/2015 10:15:30.000000;E;397.sdb;Action=job_end State=COMPLETED ExitCode=0 exec_host=c0-0c0s0n0")
	f.Add(";;;;")
	f.Add("03/02/2015 10:15:30.000000;S;x.sdb;Action=job_start")
	f.Fuzz(func(t *testing.T, line string) {
		ParseLines(events.StreamScheduler, topology.SchedulerTorque, []string{line})
	})
}

// FuzzParseChaos seeds every parser family with chaos-corrupted
// renders of valid lines, plus the valid lines themselves, CRLF-ended
// and cut off halfway, and asserts the quarantine ledger stays
// consistent: counts reconcile, reruns agree, nothing panics.
func FuzzParseChaos(f *testing.F) {
	valid := []string{
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 kernel: <2> Kernel panic - not syncing",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 nhc: <4> NHC: test memory FAILED on c0-0c0s1n2 test=memory result=fail apid=42",
		"2015-03-02T10:15:30.000000Z c0-0c0s1n2 erd: ec_hw_errors WARNING msg |detail=two words k=v",
		"2015-03-02T10:15:30.000000Z slurmctld: JobId=397 Action=job_end State=COMPLETED ExitCode=0 NodeList=c0-0c0s0n[0-3]",
		"03/02/2015 10:15:30.000000;E;397.sdb;Action=job_end State=COMPLETED ExitCode=0 exec_host=c0-0c0s0n0",
	}
	for _, mode := range chaos.AllModes() {
		inj := chaos.New(chaos.ForMode(mode, 0.8, 11))
		for _, l := range inj.CorruptLines(string(mode), valid) {
			f.Add(l)
		}
	}
	for _, l := range valid {
		f.Add(l)
		f.Add(l + "\r")
		f.Add(l[:len(l)/2])
	}
	streams := []events.Stream{events.StreamConsole, events.StreamERD, events.StreamScheduler}
	f.Fuzz(func(t *testing.T, line string) {
		for _, stream := range streams {
			for _, sched := range []topology.SchedulerType{topology.SchedulerSlurm, topology.SchedulerTorque} {
				recs, rep := ParseLinesReport(stream, sched, []string{line})
				if rep.Parsed != len(recs) {
					t.Fatalf("%s: parsed=%d but %d records", stream, rep.Parsed, len(recs))
				}
				if rep.Quarantined != len(rep.Errs) {
					t.Fatalf("%s: quarantined=%d but %d errors", stream, rep.Quarantined, len(rep.Errs))
				}
				if rep.Quarantined > rep.Lines {
					t.Fatalf("%s: quarantined %d of %d lines", stream, rep.Quarantined, rep.Lines)
				}
				recs2, rep2 := ParseLinesReport(stream, sched, []string{line})
				if rep2.Parsed != rep.Parsed || rep2.Quarantined != rep.Quarantined || len(recs2) != len(recs) {
					t.Fatalf("%s: reparse of %q inconsistent: %+v vs %+v", stream, line, rep2, rep)
				}
			}
		}
	})
}
