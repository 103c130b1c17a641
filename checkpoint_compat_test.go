package hpcfail

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
)

// checkpointRecords is the feed behind legacyCheckpoint: the later
// records stay in the reorder buffer, so the checkpoint carries records
// with zero, one and several structured fields.
func checkpointRecords() []events.Record {
	t0 := time.Date(2015, 3, 2, 10, 0, 0, 0, time.UTC)
	node := cname.MustParse("c0-0c0s1n2")
	mk := func(off time.Duration, s events.Stream, comp cname.Name, sev events.Severity, cat, msg string, kv ...string) events.Record {
		r := events.Record{Time: t0.Add(off), Stream: s, Component: comp, Severity: sev, Category: cat, Msg: msg}
		for i := 0; i+1 < len(kv); i += 2 {
			r.SetField(kv[i], kv[i+1])
		}
		return r
	}
	return []events.Record{
		mk(75*time.Minute, events.StreamScheduler, cname.Name{}, events.SevInfo, "job_start", "job 7 (cfd) started",
			"app", "cfd", "user", "user3", "nodes", "c0-0c0s1n[0-3]", "req_mem_mb", "4096"),
		mk(72*time.Minute, events.StreamControllerBC, node.BladeName(), events.SevWarning, "sedc_voltage_warning",
			"voltage low", "sensor", "voltage", "value", "0.91", "direction", "below"),
		mk(0, events.StreamConsole, node, events.SevError, "mce", "Machine Check Exception"),
		mk(70*time.Minute, events.StreamConsole, node, events.SevWarning, "hung_task_timeout",
			"blocked for more than 120 seconds", "trace", "schedule|io_schedule"),
		mk(80*time.Minute, events.StreamConsole, node, events.SevInfo, "node_shutdown",
			"shutdown: scheduled by operator", "intent", "scheduled"),
		mk(85*time.Minute, events.StreamMessages, node, events.SevInfo, "nhc", "NHC: no fields"),
	}
}

// legacyCheckpoint is what SaveWatcherCheckpoint wrote for
// checkpointRecords (ReorderWindow one hour) while Record.Fields was a
// map[string]string.
const legacyCheckpoint = `{"burstWindow":600000000000,"reorderWindow":3600000000000,"reorderLimit":1024,"evictionHorizon":86400000000000,"buffer":[{"Time":"2015-03-02T11:10:00Z","Stream":1,"Component":"c0-0c0s1n2","Severity":1,"Category":"hung_task_timeout","Msg":"blocked for more than 120 seconds","JobID":0,"Fields":{"trace":"schedule|io_schedule"}},{"Time":"2015-03-02T11:15:00Z","Stream":7,"Component":"","Severity":0,"Category":"job_start","Msg":"job 7 (cfd) started","JobID":0,"Fields":{"app":"cfd","nodes":"c0-0c0s1n[0-3]","req_mem_mb":"4096","user":"user3"}},{"Time":"2015-03-02T11:12:00Z","Stream":4,"Component":"c0-0c0s1","Severity":1,"Category":"sedc_voltage_warning","Msg":"voltage low","JobID":0,"Fields":{"direction":"below","sensor":"voltage","value":"0.91"}},{"Time":"2015-03-02T11:20:00Z","Stream":1,"Component":"c0-0c0s1n2","Severity":0,"Category":"node_shutdown","Msg":"shutdown: scheduled by operator","JobID":0,"Fields":{"intent":"scheduled"}},{"Time":"2015-03-02T11:25:00Z","Stream":2,"Component":"c0-0c0s1n2","Severity":0,"Category":"nhc","Msg":"NHC: no fields","JobID":0,"Fields":null}],"watermark":"2015-03-02T11:25:00Z","lastEvict":"2015-03-02T11:15:00Z","stats":{"Fed":6,"Reordered":3,"Evicted":0,"Buffered":0,"Candidates":0}}`

// TestLegacyCheckpointRestores holds watch -checkpoint files across the
// change of Record.Fields from a map to attribute pairs: a checkpoint in
// the map-era format restores to the state the same feed builds now,
// and saving that state writes the same bytes back.
func TestLegacyCheckpointRestores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "watch.ckpt")
	if err := os.WriteFile(path, []byte(legacyCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	restored := NewWatcher(func(Detection) {})
	if ok, err := LoadWatcherCheckpoint(path, restored); err != nil || !ok {
		t.Fatalf("LoadWatcherCheckpoint = %v, %v", ok, err)
	}

	fed := NewWatcher(func(Detection) {})
	fed.ReorderWindow = time.Hour
	for _, r := range checkpointRecords() {
		fed.Feed(r)
	}
	want := fed.Snapshot()
	if len(want.Buffer) != 5 {
		t.Fatalf("feed leaves %d records buffered, want 5: the checkpoint would not exercise Fields", len(want.Buffer))
	}
	if got := restored.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state differs from the fed one:\n got %+v\nwant %+v", got.Buffer, want.Buffer)
	}

	if err := SaveWatcherCheckpoint(path, restored); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != legacyCheckpoint {
		t.Fatalf("re-saved checkpoint differs from the legacy bytes:\n got %s\nwant %s", blob, legacyCheckpoint)
	}
	if fresh, _ := json.Marshal(want); string(fresh) != legacyCheckpoint {
		t.Fatalf("checkpoint of the fed watcher differs from the legacy bytes:\n got %s", fresh)
	}
}
