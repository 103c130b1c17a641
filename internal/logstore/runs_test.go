package logstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/chaos"
	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/topology"
)

// sameOrderAsSortByTime holds New's record order against a copy of the
// input run through events.SortByTime, record for record. Msg carries
// each record's input position, so ties are told apart.
func sameOrderAsSortByTime(t *testing.T, label string, recs []events.Record) {
	t.Helper()
	want := append([]events.Record(nil), recs...)
	events.SortByTime(want)
	got := New(recs).All()
	if len(got) != len(want) {
		t.Fatalf("%s: New holds %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Msg != want[i].Msg || !got[i].Time.Equal(want[i].Time) ||
			got[i].Stream != want[i].Stream || got[i].Component != want[i].Component {
			t.Fatalf("%s: record %d is %v, SortByTime has %v", label, i, &got[i], &want[i])
		}
	}
}

func tagged(recs []events.Record) []events.Record {
	for i := range recs {
		recs[i].Msg = "in=" + strconv.Itoa(i)
	}
	return recs
}

func TestNewMergesInSortByTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	comps := []cname.Name{{}, cname.Node(0, 0, 0, 1, 2), cname.Node(0, 0, 0, 1, 3), cname.MustParse("c0-0c0s1")}
	random := func(n, spread int) []events.Record {
		rs := make([]events.Record, n)
		for i := range rs {
			rs[i] = events.Record{
				Time:      t0.Add(time.Duration(rng.Intn(spread)) * time.Second),
				Stream:    events.Stream(1 + rng.Intn(8)),
				Component: comps[rng.Intn(len(comps))],
			}
		}
		return tagged(rs)
	}
	for trial := 0; trial < 50; trial++ {
		sameOrderAsSortByTime(t, "random", random(rng.Intn(200), 1+rng.Intn(30)))
	}

	sorted := random(300, 50)
	events.SortByTime(sorted)
	sameOrderAsSortByTime(t, "one run", tagged(sorted))

	reversed := append([]events.Record(nil), sorted...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	sameOrderAsSortByTime(t, "reversed", tagged(reversed))

	// One instant, every record a tie on time: streams and components
	// decide, then input order — across runs and within them.
	var ties []events.Record
	for run := 0; run < 4; run++ {
		for s := events.Stream(8); s >= 1; s-- {
			for _, c := range comps {
				ties = append(ties, events.Record{Time: t0, Stream: s, Component: c})
				ties = append(ties, events.Record{Time: t0, Stream: s, Component: c})
			}
		}
	}
	sameOrderAsSortByTime(t, "all-equal times", tagged(ties))

	// Per-stream runs concatenated, as a directory load hands them over.
	var streams []events.Record
	for s := events.Stream(1); s <= 8; s++ {
		run := random(100, 600)
		for i := range run {
			run[i].Stream = s
		}
		events.SortByTime(run)
		streams = append(streams, run...)
	}
	sameOrderAsSortByTime(t, "stream runs", tagged(streams))

	sameOrderAsSortByTime(t, "empty", nil)
	sameOrderAsSortByTime(t, "single", random(1, 1))
}

// TestNewMergesChaosShuffledLoad runs the merge over what a load of a
// shuffle-damaged directory parses: per-stream runs cut into many short
// ones by the displaced lines. LoadDirReport's store must hold that
// order too.
func TestNewMergesChaosShuffledLoad(t *testing.T) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	p.Spec = topology.Spec{ID: "S1", Nodes: 192, CabinetCols: 2, Scheduler: topology.SchedulerSlurm, Cray: true}
	p.Workload.MeanInterarrival = time.Hour
	scn, err := faultsim.Generate(p, t0, t0.Add(24*time.Hour), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "logs")
	rep, err := WriteDirChaos(dir, scn.Records, topology.SchedulerSlurm, chaos.ForMode(chaos.ModeShuffle, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shuffled == 0 {
		t.Fatal("chaos shuffled no lines; the test would not exercise short runs")
	}
	var recs []events.Record
	for _, s := range loggen.AllStreams() {
		data, err := os.ReadFile(filepath.Join(dir, loggen.FileName(s)))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got, _ := logparse.ParseLinesReport(s, topology.SchedulerSlurm, strings.Split(strings.TrimRight(string(data), "\n"), "\n"))
		recs = append(recs, got...)
	}
	want := append([]events.Record(nil), recs...)
	events.SortByTime(want)
	store, _, err := LoadDirReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "LoadDirReport of a shuffled directory", store.All(), want)
	sameOrderAsSortByTime(t, "shuffled load", tagged(recs))
}

// TestNewAllocsConstantInRecords pins New's allocations to the corpus's
// keys and runs, not its size: the same streams with every record
// repeated four times (4N records, the same runs and index keys) cost
// New the same number of allocations as N.
func TestNewAllocsConstantInRecords(t *testing.T) {
	dir, _ := writeScenarioDir(t)
	var recs, recs4 []events.Record
	for _, s := range loggen.AllStreams() {
		data, err := os.ReadFile(filepath.Join(dir, loggen.FileName(s)))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got, _ := logparse.ParseLinesReport(s, topology.SchedulerSlurm, strings.Split(strings.TrimRight(string(data), "\n"), "\n"))
		recs = append(recs, got...)
		for _, r := range got {
			recs4 = append(recs4, r, r, r, r)
		}
	}
	n1 := testing.AllocsPerRun(3, func() { New(recs) })
	n4 := testing.AllocsPerRun(3, func() { New(recs4) })
	t.Logf("New: %.0f allocations for %d records, %.0f for %d", n1, len(recs), n4, len(recs4))
	if n4 > n1 {
		t.Errorf("New allocates %.0f times for %d records but %.0f for %d: allocations grow with the record count",
			n4, len(recs4), n1, len(recs))
	}
}
