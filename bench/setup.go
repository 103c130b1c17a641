package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/replica"
	"hpcfail/internal/topology"
)

// day is the slicing unit of the one seeded scenario.
const day = 24 * time.Hour

// scenarioStart anchors the simulated window; every slice is a day range
// counted from it.
var scenarioStart = time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)

// slice is a half-open day range [from, to) of the scenario, 0-based:
// {0, 7} is days 1–7.
type slice struct{ from, to int }

// request is one pre-encoded POST /v1/ingest body plus what the checks
// and the traced layer calls need to know about it.
type request struct {
	body      []byte
	batches   []replica.Batch
	lines     int
	lineBytes int
	// events lists the (node, log time) of every record in the request,
	// so an SSE alarm/failure frame can be matched to the request that
	// carried its triggering line.
	events []eventKey
}

// eventKey identifies a log record the way SSE frames do.
type eventKey struct {
	node string
	time int64 // UnixNano
}

// binaries are the programs under test, built from this checkout.
type binaries struct{ diagnose, serve string }

// buildBinaries compiles cmd/diagnose and cmd/serve into dir, from
// nothing: an up-to-date output would otherwise skip the link step and
// make repeated set-ups incomparable.
func buildBinaries(dir string) (binaries, error) {
	if err := os.RemoveAll(dir); err != nil {
		return binaries{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "hpcfail/cmd/diagnose", "hpcfail/cmd/serve")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, msg)
	}
	return binaries{diagnose: filepath.Join(dir, "diagnose"), serve: filepath.Join(dir, "serve")}, nil
}

// generate runs the single simulator call every input is cut from.
func generate(seed uint64, days int) (*faultsim.Scenario, error) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		return nil, err
	}
	return layerGenerate(p, scenarioStart, scenarioStart.Add(time.Duration(days)*day), seed)
}

// records returns the scenario's records inside the slice, time-ordered.
func records(scn *faultsim.Scenario, s slice) []events.Record {
	return scn.RecordsBetween(scenarioStart.Add(time.Duration(s.from)*day), scenarioStart.Add(time.Duration(s.to)*day))
}

// failures returns the ground-truth failures inside the slice.
func failures(scn *faultsim.Scenario, s slice) []faultsim.Failure {
	return scn.FailuresBetween(scenarioStart.Add(time.Duration(s.from)*day), scenarioStart.Add(time.Duration(s.to)*day))
}

// writeCorpus renders records into a log directory.
func writeCorpus(dir string, recs []events.Record, sched topology.SchedulerType) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return layerWriteDir(dir, recs, sched)
}

// encodeRequests walks records in time order, renders each to its raw
// line(s) and cuts a request once it holds at least perRequest lines — at
// a record boundary, so a multi-line call trace is never split — with
// one batches[] element per stream present.
func encodeRequests(recs []events.Record, sched topology.SchedulerType, perRequest int) ([]request, error) {
	var (
		out    []request
		cur    request
		slot   = map[events.Stream]int{}
		finish = func() error {
			body, err := json.Marshal(struct {
				Batches []replica.Batch `json:"batches"`
			}{cur.batches})
			if err != nil {
				return err
			}
			cur.body = body
			out = append(out, cur)
			cur = request{}
			slot = map[events.Stream]int{}
			return nil
		}
	)
	for _, r := range recs {
		i, ok := slot[r.Stream]
		if !ok {
			i = len(cur.batches)
			slot[r.Stream] = i
			cur.batches = append(cur.batches, replica.Batch{Stream: r.Stream.String()})
		}
		for _, line := range layerRender(r, sched) {
			cur.batches[i].Lines = append(cur.batches[i].Lines, line)
			cur.lines++
			cur.lineBytes += len(line) + 1
		}
		if r.Component.IsValid() {
			cur.events = append(cur.events, eventKey{r.Component.String(), r.Time.UnixNano()})
		}
		if cur.lines >= perRequest {
			if err := finish(); err != nil {
				return nil, err
			}
		}
	}
	if cur.lines > 0 {
		if err := finish(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// totalLines sums the raw lines of a request list.
func totalLines(reqs []request) int {
	n := 0
	for i := range reqs {
		n += reqs[i].lines
	}
	return n
}
