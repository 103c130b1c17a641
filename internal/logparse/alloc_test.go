package logparse

import (
	"testing"
	"time"

	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/loggen"
	"hpcfail/internal/topology"
)

// renderedCorpus renders a seeded two-day scenario through loggen: every
// stream's raw lines, keyed by stream.
func renderedCorpus(t *testing.T, sched topology.SchedulerType) map[events.Stream][]string {
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
	files := loggen.RenderAll(scn.Records, sched)
	out := map[events.Stream][]string{}
	for _, s := range loggen.AllStreams() {
		if lines := files[loggen.FileName(s)]; len(lines) > 0 {
			out[s] = lines
		}
	}
	return out
}

// TestParseAllocsPerLine pins what ParseLinesReport allocates, in units
// of its input: at most 1.5 allocations per line over a multi-stream
// corpus (a map per record and time.Parse's layout walk took it to
// 3.7). The records slice and the attribute slab are per call; only
// scheduler and ALPS messages, traces and errors allocate per line.
func TestParseAllocsPerLine(t *testing.T) {
	corpus := renderedCorpus(t, topology.SchedulerSlurm)
	var allocs float64
	lines := 0
	for s, ls := range corpus {
		n := testing.AllocsPerRun(3, func() { ParseLinesReport(s, topology.SchedulerSlurm, ls) })
		t.Logf("%-14s %6d lines %8.0f allocations (%.2f a line)", s, len(ls), n, n/float64(len(ls)))
		allocs += n
		lines += len(ls)
	}
	if len(corpus) < 6 {
		t.Fatalf("corpus has %d streams; the pin would not cover the parsers", len(corpus))
	}
	perLine := allocs / float64(lines)
	t.Logf("all streams: %.3f allocations a line over %d lines", perLine, lines)
	if perLine > 1.5 {
		t.Errorf("ParseLinesReport allocates %.2f times a line, budget 1.5", perLine)
	}
}

// TestParsedFieldsAreCapped: records parsed from one call share the
// call's attribute slab, each holding a sub-slice with no spare
// capacity, so SetField on one record never writes into the next one's
// attributes or into a copy of itself.
func TestParsedFieldsAreCapped(t *testing.T) {
	corpus := renderedCorpus(t, topology.SchedulerSlurm)
	for s, ls := range corpus {
		recs, _ := ParseLinesReport(s, topology.SchedulerSlurm, ls)
		withFields := 0
		for i := range recs {
			if f := recs[i].Fields; f != nil {
				withFields++
				if cap(f) != len(f) {
					t.Fatalf("%v record %d: Fields len %d cap %d", s, i, len(f), cap(f))
				}
			}
		}
		if withFields < 2 {
			continue
		}
		before := make([]string, len(recs))
		for i := range recs {
			before[i] = recs[i].FieldsString()
		}
		for i := range recs {
			cp := recs[i]
			recs[i].SetField("zz_added", "x")
			cp.SetField("zz_copy", "y")
		}
		for i := range recs {
			if want := joinFields(before[i], "zz_added=x"); recs[i].FieldsString() != want {
				t.Fatalf("%v record %d: fields %q after SetField, want %q", s, i, recs[i].FieldsString(), want)
			}
		}
	}
}

func joinFields(a, b string) string {
	if a == "" {
		return b
	}
	return a + " " + b
}
