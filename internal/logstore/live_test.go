package logstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
)

// liveArrivals cuts a generated corpus into canonically sorted batches
// whose arrival order is not time order: every third batch changes
// places with the one before it, so the Live sees in-place appends and
// rebuilt position lists on keys it already holds.
func liveArrivals(t *testing.T, per int) (arrivals []events.Record, batches [][]events.Record) {
	t.Helper()
	return liveArrivalsOf(shardScenario(t).Records, per)
}

func liveArrivalsOf(recs []events.Record, per int) (arrivals []events.Record, batches [][]events.Record) {
	n := len(recs)
	for lo := 0; lo < n; lo += per {
		b := append([]events.Record(nil), recs[lo:min(lo+per, n)]...)
		events.SortByTime(b)
		batches = append(batches, b)
	}
	for i := 2; i < len(batches); i += 3 {
		batches[i-1], batches[i] = batches[i], batches[i-1]
	}
	for _, b := range batches {
		arrivals = append(arrivals, b...)
	}
	return arrivals, batches
}

// sameStore holds got against want on every accessor, for every key
// any record of keys names — so a key got must not know yet is checked
// to be absent.
func sameStore(t *testing.T, label string, got, want *Store, keys []events.Record) {
	t.Helper()
	sameRecords(t, label+": All", got.All(), want.All())
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: Nodes differ: %d vs %d", label, len(got.Nodes()), len(want.Nodes()))
	}
	from, to := time.Time{}, time.Unix(1<<40, 0)
	seenComp, seenCat, seenJob := map[cname.Name]bool{}, map[string]bool{}, map[int64]bool{}
	for i := range keys {
		r := &keys[i]
		if c := r.Component; c.IsValid() && !seenComp[c] {
			seenComp[c] = true
			for _, n := range []cname.Name{c, c.BladeName(), c.CabinetName()} {
				sameSpan(t, label+": node "+n.String(), got.NodeWindow(n, from, to), want.NodeWindow(n, from, to).Records())
				sameSpan(t, label+": blade "+n.String(), got.BladeWindow(n, from, to), want.BladeWindow(n, from, to).Records())
				sameSpan(t, label+": cabinet "+n.String(), got.CabinetWindow(n, from, to), want.CabinetWindow(n, from, to).Records())
			}
		}
		if !seenCat[r.Category] {
			seenCat[r.Category] = true
			sameSpan(t, label+": category "+r.Category, got.Category(r.Category), want.Category(r.Category).Records())
		}
		if !seenJob[r.JobID] {
			seenJob[r.JobID] = true
			sameSpan(t, label+": job", got.Job(r.JobID), want.Job(r.JobID).Records())
		}
	}
}

// TestLiveSnapshotsSurviveLaterApplies pins snapshot safety under shard
// sharing: a Live and the Stores it stamped out hold the same shard
// maps and position arrays, so every snapshot is re-read after the Live
// took all later batches and must still answer like New over exactly
// the records that had arrived when it was taken. A write that skipped
// the shard copy, or an append visible past a list's length, shows up
// as an old snapshot growing a record or a key.
func TestLiveSnapshotsSurviveLaterApplies(t *testing.T) {
	arrivals, batches := liveArrivals(t, 64)
	live := NewLive()
	var snaps []*Store
	var cuts []int
	arrived := 0
	for _, b := range batches {
		live.Apply(b)
		arrived += len(b)
		snaps = append(snaps, live.Snapshot())
		cuts = append(cuts, arrived)
	}
	for i, s := range snaps {
		sameStore(t, fmt.Sprintf("snapshot %d", i), s, New(arrivals[:cuts[i]]), arrivals)
	}

	// The same through adoption: a Live continued from a batch-built
	// store ends where the all-delta one does and leaves that store as
	// it found it.
	mid := len(batches) / 2
	seed := New(arrivals[:cuts[mid-1]])
	adopted := LiveFrom(seed)
	first := adopted.Snapshot()
	for _, b := range batches[mid:] {
		adopted.Apply(b)
	}
	sameStore(t, "adopted", adopted.Snapshot(), New(arrivals), arrivals)
	sameStore(t, "adopted, first snapshot", first, New(arrivals[:cuts[mid-1]]), arrivals)
	sameStore(t, "seeding store", seed, New(arrivals[:cuts[mid-1]]), arrivals)
}

// TestLiveSnapshotSharesUntouchedShards pins what a snapshot costs: the
// shard tables, not the keys. Consecutive snapshots around a one-record
// batch must hold the very same map in every shard the record's keys do
// not hash to.
func TestLiveSnapshotSharesUntouchedShards(t *testing.T) {
	arrivals, _ := liveArrivals(t, 64)
	sorted := New(arrivals).All()
	live := NewLive()
	live.Apply(sorted[:len(sorted)-1])
	before := live.Snapshot()
	live.Apply(sorted[len(sorted)-1:])
	after := live.Snapshot()

	cloned := func(a, b any) (n, populated int) {
		as, bs := reflect.ValueOf(a), reflect.ValueOf(b)
		for i := 0; i < as.Len(); i++ {
			if as.Index(i).Len() > 0 {
				populated++
			}
			if as.Index(i).Pointer() != bs.Index(i).Pointer() {
				n++
			}
		}
		return n, populated
	}
	for _, f := range []struct {
		name   string
		shards [2]any
	}{
		{"node", [2]any{before.byNode.shards, after.byNode.shards}},
		{"blade", [2]any{before.byBlade.shards, after.byBlade.shards}},
		{"cabinet", [2]any{before.byCabinet.shards, after.byCabinet.shards}},
		{"category", [2]any{before.byCategory.shards, after.byCategory.shards}},
		{"job", [2]any{before.byJob.shards, after.byJob.shards}},
	} {
		n, populated := cloned(f.shards[0], f.shards[1])
		if n > 1 {
			t.Errorf("%s index: a one-record batch cloned %d of %d populated shards, want at most 1", f.name, n, populated)
		}
		if f.name == "node" && populated < 32 {
			t.Fatalf("node index populates %d shards — too few for the check to mean anything", populated)
		}
	}
}

// TestLiveOutOfOrderKeepsPositions pins the out-of-order path, where
// records move: a batch lands one hour before the end of the log, so
// every position after it shifts and every list naming one is rebuilt.
// Snapshots taken before must still answer from their own log and
// lists, the Live must answer like New over the same arrivals — also
// for keys only the displaced tail names, not the batch — and in-order
// appends afterwards must extend the rebuilt lists.
func TestLiveOutOfOrderKeepsPositions(t *testing.T) {
	sorted := New(shardScenario(t).Records).All()
	// The scenario's last records trail off (jobs ending after the
	// simulated window); the log proper ends two days in.
	end := sorted[0].Time.Add(48 * time.Hour)
	p, q := searchTime(sorted, end.Add(-time.Hour)), searchTime(sorted, end)
	if q-p < 32 || q == len(sorted) {
		t.Fatalf("only %d records in the last hour — too few for the batch to displace anything", q-p)
	}
	late := sorted[p : p+16]
	var arrivals []events.Record
	var batches [][]events.Record
	for _, b := range [][]events.Record{sorted[:p/2], sorted[p/2 : p], sorted[p+16 : q], late, sorted[q:]} {
		batches = append(batches, b)
		arrivals = append(arrivals, b...)
	}

	live := NewLive()
	var adopted *Live
	var seed *Store
	var snaps []*Store
	var cuts []int
	arrived := 0
	for i, b := range batches {
		if i == 3 {
			seed = New(arrivals[:arrived])
			adopted = LiveFrom(seed)
		}
		live.Apply(b)
		if adopted != nil {
			adopted.Apply(b)
		}
		arrived += len(b)
		snaps = append(snaps, live.Snapshot())
		cuts = append(cuts, arrived)
	}
	for i, s := range snaps {
		sameStore(t, fmt.Sprintf("snapshot %d", i), s, New(arrivals[:cuts[i]]), arrivals)
	}
	sameStore(t, "adopted", adopted.Snapshot(), New(arrivals), arrivals)
	sameStore(t, "seeding store", seed, New(arrivals[:cuts[2]]), arrivals)
}
