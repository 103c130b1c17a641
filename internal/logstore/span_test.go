package logstore

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
)

// naiveWindow is the pre-span reference: scan everything, filter by
// predicate and time range.
func naiveWindow(recs []events.Record, from, to time.Time, keep func(events.Record) bool) []events.Record {
	var out []events.Record
	for _, r := range recs {
		if !r.Time.Before(from) && r.Time.Before(to) && keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func sameRecords(t *testing.T, label string, got, want []events.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) || got[i].Category != want[i].Category ||
			got[i].Component != want[i].Component || got[i].Msg != want[i].Msg ||
			got[i].JobID != want[i].JobID || got[i].Stream != want[i].Stream {
			t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// sameSpan holds a Span against the records it should view, read both
// ways a caller can: record by record through At, and copied out through
// Records.
func sameSpan(t *testing.T, label string, got Span, want []events.Record) {
	t.Helper()
	through := make([]events.Record, got.Len())
	for i := range through {
		through[i] = *got.At(i)
	}
	sameRecords(t, label+" through At", through, want)
	sameRecords(t, label+" through Records", got.Records(), want)
}

// matchesScan checks every index accessor of s against a naive filter
// scan of its own log: a position list must name exactly the key's
// records, in log order.
func matchesScan(t *testing.T, label string, s *Store) {
	t.Helper()
	all := s.All()
	first, last, _ := s.Span()
	whole := struct{ from, to time.Time }{first, last.Add(time.Second)}
	windows := []struct{ from, to time.Time }{
		whole,
		{first.Add(6 * time.Hour), first.Add(30 * time.Hour)},
		{last, first}, // empty (inverted)
		{first.Add(-time.Hour), first},
	}
	for _, n := range s.Nodes() {
		n := n
		for _, w := range windows {
			want := naiveWindow(all, w.from, w.to, func(r events.Record) bool {
				return r.Component == n
			})
			sameSpan(t, label+": NodeWindow "+n.String(), s.NodeWindow(n, w.from, w.to), want)
		}
	}
	blades := map[cname.Name]bool{}
	cabs := map[cname.Name]bool{}
	cats := map[string]bool{}
	jobs := map[int64]bool{}
	for _, r := range all {
		if r.Component.IsValid() {
			if b := r.Component.BladeName(); b.IsValid() {
				blades[b] = true
			}
			cabs[r.Component.CabinetName()] = true
		}
		cats[r.Category] = true
		if r.JobID != 0 {
			jobs[r.JobID] = true
		}
	}
	w := windows[1]
	for b := range blades {
		b := b
		want := naiveWindow(all, w.from, w.to, func(r events.Record) bool {
			return r.Component.IsValid() && r.Component.BladeName() == b
		})
		sameSpan(t, label+": BladeWindow "+b.String(), s.BladeWindow(b, w.from, w.to), want)
	}
	for c := range cabs {
		c := c
		want := naiveWindow(all, w.from, w.to, func(r events.Record) bool {
			return r.Component.IsValid() && r.Component.CabinetName() == c
		})
		sameSpan(t, label+": CabinetWindow "+c.String(), s.CabinetWindow(c, w.from, w.to), want)
	}
	for cat := range cats {
		cat := cat
		keep := func(r events.Record) bool { return r.Category == cat }
		sameSpan(t, label+": CategoryWindow "+cat, s.CategoryWindow(cat, w.from, w.to), naiveWindow(all, w.from, w.to, keep))
		sameSpan(t, label+": Category "+cat, s.Category(cat), naiveWindow(all, whole.from, whole.to, keep))
		sameSpan(t, label+": Category.Window "+cat, s.Category(cat).Window(w.from, w.to), naiveWindow(all, w.from, w.to, keep))
	}
	for id := range jobs {
		id := id
		want := naiveWindow(all, whole.from, whole.to, func(r events.Record) bool {
			return r.JobID == id
		})
		sameSpan(t, label+": Job", s.Job(id), want)
	}
}

// TestSpanWindowEquivalence checks every index query against a naive
// full scan — the position lists change the storage, never the answers
// — however the store was built: by New, delta by delta through a Live,
// and by a Live that adopted a batch-built store half way. The corpus
// arrives out of time order and holds records that tie on the whole
// canonical key, so their order is arrival order alone.
func TestSpanWindowEquivalence(t *testing.T) {
	recs := testScenario(t).Records
	for i := 0; i+100 < len(recs); i += 40 {
		twin := recs[i]
		twin.Msg = "twin of " + twin.Msg
		recs = slices.Insert(recs, i+100, twin)
	}
	arrivals, batches := liveArrivalsOf(recs, 256)

	built := New(arrivals)
	matchesScan(t, "New", built)

	live := NewLive()
	half, arrived := (*Store)(nil), 0
	var adopted *Live
	for i, b := range batches {
		if i == len(batches)/2 {
			half = New(arrivals[:arrived])
			adopted = LiveFrom(half)
		}
		live.Apply(b)
		if adopted != nil {
			adopted.Apply(b)
		}
		arrived += len(b)
	}
	for _, c := range []struct {
		label string
		s     *Store
	}{
		{"Live.Snapshot", live.Snapshot()},
		{"LiveFrom.Snapshot", adopted.Snapshot()},
	} {
		sameRecords(t, c.label+": All", c.s.All(), built.All())
		matchesScan(t, c.label, c.s)
	}
	matchesScan(t, "the adopted store, afterwards", half)
}

// TestWindowQueryAllocs locks in the zero-allocation property of the
// span-backed window queries.
func TestWindowQueryAllocs(t *testing.T) {
	s := testStore()
	node := cname.MustParse("c0-0c0s1n2")
	blade := cname.MustParse("c0-0c0s1")
	cab := cname.MustParse("c0-0")
	from, to := t0, t0.Add(time.Hour)
	checks := []struct {
		name string
		fn   func()
	}{
		{"NodeWindow", func() { s.NodeWindow(node, from, to) }},
		{"BladeWindow", func() { s.BladeWindow(blade, from, to) }},
		{"CabinetWindow", func() { s.CabinetWindow(cab, from, to) }},
		{"CategoryWindow", func() { s.CategoryWindow("mce", from, to) }},
		{"Category", func() { s.Category("mce") }},
		{"Job", func() { s.Job(42) }},
		{"Window", func() { s.Window(from, to) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per query, want 0", c.name, allocs)
		}
	}
}

// TestSpanRecordsIsACopy pins the one way records leave the store by
// value: mutating what Records returned does not change the store.
func TestSpanRecordsIsACopy(t *testing.T) {
	s := testStore()
	before := append([]events.Record(nil), s.All()...)
	out := s.Category("mce").Records()
	for i := range out {
		out[i].Category = "intruder"
	}
	_ = append(out, events.Record{Category: "intruder"})
	sameRecords(t, "All after mutation", s.All(), before)
	sameRecords(t, "Category after mutation", s.Category("mce").Records(),
		naiveWindow(before, t0, t0.Add(time.Hour), func(r events.Record) bool { return r.Category == "mce" }))
}

// TestStoreRefusesMoreRecordsThanPositions pins the guard New and
// Live.Apply run before indexing: a log longer than uint32 positions can
// address is refused with a message, never indexed with wrapped
// positions.
func TestStoreRefusesMoreRecordsThanPositions(t *testing.T) {
	limit := uint64(1) << 32
	checkPositions(int(limit - 1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2^32") {
			t.Fatalf("checkPositions(1<<32) = %q, want a panic naming the limit", msg)
		}
	}()
	checkPositions(int(limit))
}

// TestStoreHoldsEachRecordOnce pins the store's memory in units of its
// input, so it holds on any hardware: what New keeps live is the record
// log plus indexes that cost a few bytes a record, not one more copy of
// the records per index family (3.95x before the position lists).
func TestStoreHoldsEachRecordOnce(t *testing.T) {
	p, err := faultsim.DefaultProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := faultsim.Generate(p, t0, t0.Add(7*24*time.Hour), 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := scn.Records
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	s := New(recs)
	held := heap() - before
	budget := int64(1.3 * float64(len(recs)) * float64(unsafe.Sizeof(events.Record{})))
	t.Logf("%d records: store holds %d B = %.2fx the records (budget 1.3x)", len(recs), held,
		float64(held)/float64(len(recs))/float64(unsafe.Sizeof(events.Record{})))
	if held > budget {
		t.Errorf("New(%d records) keeps %d B live, budget %d B", len(recs), held, budget)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(recs)
}
