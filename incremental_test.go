package hpcfail

// Differential harness for the incremental diagnosis engine: over
// seeded corpora × chaos damage × randomized ingest schedules (batch
// sizes, out-of-order arrivals) × GOMAXPROCS, the engine's Snapshot
// after every single batch must be value-identical AND render
// byte-identical to a from-scratch batch pipeline run over the
// concatenated arrivals. Snapshots taken at earlier watermarks must
// also stay stable — re-rendering them after later batches mutated the
// engine must reproduce the exact bytes captured at their watermark.
// Run with -race; the acceptance gate is
//
//	go test -run TestIncrementalEquivalence -race .

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
	"hpcfail/internal/render"
	"hpcfail/internal/topology"
)

// perturbArrival returns a deterministically disordered copy of recs:
// each index has probability frac of swapping with a partner up to
// window positions ahead, producing out-of-order arrivals both inside
// batches and across batch boundaries.
func perturbArrival(recs []events.Record, rng *rand.Rand, frac float64, window int) []events.Record {
	out := make([]events.Record, len(recs))
	copy(out, recs)
	for i := range out {
		if rng.Float64() >= frac {
			continue
		}
		j := i + rng.Intn(window)
		if j >= len(out) {
			j = len(out) - 1
		}
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// splitBatches cuts the arrival sequence at n-1 uniformly random points
// — batch sizes vary wildly and empty batches occur naturally when two
// cuts coincide.
func splitBatches(recs []events.Record, rng *rand.Rand, n int) [][]events.Record {
	cuts := make([]int, 0, n+1)
	cuts = append(cuts, 0, len(recs))
	for i := 1; i < n; i++ {
		cuts = append(cuts, rng.Intn(len(recs)+1))
	}
	sort.Ints(cuts)
	out := make([][]events.Record, 0, n)
	for i := 1; i < len(cuts); i++ {
		out = append(out, recs[cuts[i-1]:cuts[i]])
	}
	return out
}

// renderPair renders the CLI text report (full) and the NDJSON form of
// a result — the byte surface /v1/diagnose serves.
func renderPair(t *testing.T, dir string, rep *IngestReport, res *Result) ([]byte, []byte) {
	t.Helper()
	var txt, js bytes.Buffer
	if err := render.Diagnose(&txt, dir, res.Store, rep, res, true); err != nil {
		t.Fatal(err)
	}
	if err := render.DiagnoseJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	return txt.Bytes(), js.Bytes()
}

func TestIncrementalEquivalence(t *testing.T) {
	corpora := []equivCorpus{
		{name: "clean"},
		{name: "chaos-mixed", chaos: ChaosConfig{
			Drop: 0.05, Garble: 0.05, Truncate: 0.05, Duplicate: 0.05, Seed: 17}},
		{name: "degraded-no-scheduler", removeStreams: []events.Stream{events.StreamScheduler}},
	}
	for _, seed := range []uint64{5, 23} {
		scn := equivScenario(t, seed)
		for ci, c := range corpora {
			dir := c.write(t, scn)
			store, rep, err := LoadLogsReport(dir, topology.SchedulerSlurm)
			if err != nil {
				t.Fatal(err)
			}
			all := store.All()
			for gi, gmp := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("seed%d/%s/gomaxprocs%d", seed, c.name, gmp), func(t *testing.T) {
					old := runtime.GOMAXPROCS(gmp)
					defer runtime.GOMAXPROCS(old)

					// Distinct deterministic schedule per (seed, corpus,
					// gomaxprocs) leg.
					rng := rand.New(rand.NewSource(int64(seed)*4001 + int64(1000*ci+31*gi+7)))
					arrivals := perturbArrival(all, rng, 0.15, 96)
					batches := splitBatches(arrivals, rng, 8)

					eng := NewEngine()
					var arrived []Record
					type watermark struct {
						res      *Result
						txt, js  []byte
						detCount int
					}
					var wms []watermark
					for bi, b := range batches {
						eng.ApplyBatch(b)
						arrived = append(arrived, b...)
						got := eng.Snapshot(0)
						want, err := core.RunContext(context.Background(),
							StoreRecords(arrived), DefaultPipelineConfig())
						if err != nil {
							t.Fatal(err)
						}
						func() {
							defer func() {
								if t.Failed() {
									t.Logf("diverged at watermark %d (batch of %d, %d arrived)",
										bi, len(b), len(arrived))
								}
							}()
							sameResults(t, got, want)
						}()
						gt, gj := renderPair(t, dir, rep, got)
						wt, wj := renderPair(t, dir, rep, want)
						if !bytes.Equal(gt, wt) {
							t.Fatalf("watermark %d: text render diverges from batch pipeline", bi)
						}
						if !bytes.Equal(gj, wj) {
							t.Fatalf("watermark %d: JSON render diverges from batch pipeline", bi)
						}
						wms = append(wms, watermark{res: got, txt: gt, js: gj, detCount: len(got.Detections)})
					}
					if n := wms[len(wms)-1].detCount; c.name == "clean" && n == 0 {
						t.Fatal("clean corpus yields no detections — property vacuous")
					}
					if eng.Len() != len(all) {
						t.Fatalf("engine holds %d records, corpus has %d", eng.Len(), len(all))
					}

					// Seeded arm: a random prefix of the arrival sequence enters
					// through Seed over a batch-built store, the rest through
					// ApplyBatch. From the seed's watermark on, every snapshot
					// must equal the all-delta engine's — which the loop above
					// held against the batch pipeline — in value and in bytes.
					// Drawn after every draw above, so the schedules the other
					// assertions see are the ones they always saw.
					seedBatches := 1 + rng.Intn(len(batches)-1)
					cut := 0
					for _, b := range batches[:seedBatches] {
						cut += len(b)
					}
					prefix := logstore.New(arrivals[:cut])
					seeded := NewEngine()
					seeded.Seed(prefix)
					for bi := seedBatches - 1; bi < len(batches); bi++ {
						if bi >= seedBatches {
							seeded.ApplyBatch(batches[bi])
						}
						got := seeded.Snapshot(0)
						sameResults(t, got, wms[bi].res)
						gt, gj := renderPair(t, dir, rep, got)
						if !bytes.Equal(gt, wms[bi].txt) || !bytes.Equal(gj, wms[bi].js) {
							t.Fatalf("watermark %d: engine seeded with %d batches renders differently from the all-delta engine", bi, seedBatches)
						}
					}
					if !reflect.DeepEqual(prefix.All(), logstore.New(arrivals[:cut]).All()) {
						t.Fatal("the seeding store was modified by the batches applied after it")
					}

					// Snapshot stability: every earlier watermark's Result must
					// re-render the exact bytes captured when it was taken, even
					// though the engine mutated through every later batch.
					for i, w := range wms {
						txt, js := renderPair(t, dir, rep, w.res)
						if !bytes.Equal(txt, w.txt) || !bytes.Equal(js, w.js) {
							t.Fatalf("watermark %d snapshot mutated by later batches", i)
						}
					}
				})
			}
		}
	}
}

// TestIncrementalSingleRecordBatches drives the engine one record at a
// time — the server's worst-case write mix — and checks against the
// batch pipeline at sampled watermarks (every record would square the
// runtime).
func TestIncrementalSingleRecordBatches(t *testing.T) {
	scn := equivScenario(t, 23)
	dir := equivCorpus{name: "clean"}.write(t, scn)
	store, _, err := LoadLogsReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	all := store.All()
	// A slice around the first detection keeps the leg fast but
	// failure-bearing.
	full, err := core.RunContext(context.Background(), StoreRecords(all), DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Detections) == 0 {
		t.Fatal("corpus yields no detections — test vacuous")
	}
	firstDet := full.Detections[0].Time
	lo, hi := 0, len(all)
	for i := range all {
		if all[i].Time.Before(firstDet.Add(-DefaultPipelineConfig().ExternalWindow)) {
			lo = i
		}
		if all[i].Time.Before(firstDet.Add(DefaultPipelineConfig().ExternalWindow)) {
			hi = i
		}
	}
	slice := all[lo:hi]
	if len(slice) > 4000 {
		slice = slice[:4000]
	}
	eng := NewEngine()
	for i := range slice {
		eng.ApplyBatch(slice[i : i+1])
		if i%500 != 499 && i != len(slice)-1 {
			continue
		}
		got := eng.Snapshot(0)
		want, err := core.RunContext(context.Background(),
			StoreRecords(slice[:i+1]), DefaultPipelineConfig())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)
	}
}

// storeView reads a store through every accessor, keyed by every
// component, category and job its records name.
func storeView(s *Store) map[string]any {
	all := s.All()
	first, last, ok := s.Span()
	end := last.Add(time.Second)
	view := map[string]any{"all": all, "len": s.Len(), "nodes": s.Nodes(), "span": [2]time.Time{first, last}, "ok": ok,
		"window": s.Window(first, end)}
	for i := range all {
		r := &all[i]
		if c := r.Component; c.IsValid() {
			for _, n := range []cname.Name{c, c.BladeName(), c.CabinetName()} {
				view["node "+n.String()] = s.NodeWindow(n, first, end).Records()
				view["blade "+n.String()] = s.BladeWindow(n, first, end).Records()
				view["cabinet "+n.String()] = s.CabinetWindow(n, first, end).Records()
			}
		}
		view["category "+r.Category] = s.Category(r.Category).Records()
		view["categorywindow "+r.Category] = s.CategoryWindow(r.Category, first, end).Records()
		view[fmt.Sprint("job ", r.JobID)] = s.Job(r.JobID).Records()
	}
	return view
}

// TestIncrementalSeedLeavesStoreIntact pins the aliasing rule of
// seed-by-adoption: the store handed to Seed stays the caller's. Two
// engines seeded from one store take different deltas — in-order
// appends and out-of-order merges, on keys the store already holds —
// and the store must still answer every accessor like a freshly built
// one, and a snapshot taken before the deltas must still render the
// bytes it rendered then.
func TestIncrementalSeedLeavesStoreIntact(t *testing.T) {
	scn := equivScenario(t, 23)
	dir := equivCorpus{name: "clean"}.write(t, scn)
	loaded, rep, err := LoadLogsReport(dir, topology.SchedulerSlurm)
	if err != nil {
		t.Fatal(err)
	}
	all := loaded.All()
	cut := len(all) / 2
	prefix := all[:cut]
	shared := logstore.New(prefix)

	a, b := NewEngine(), NewEngine()
	a.Seed(shared)
	b.Seed(shared)
	early := a.Snapshot(0)
	if len(early.Detections) == 0 {
		t.Fatal("seeded prefix yields no detections — test vacuous")
	}
	earlyTxt, earlyJS := renderPair(t, dir, rep, early)

	// a takes the rest of the corpus in order; b takes it backwards, so
	// every one of its batches sorts before records already held.
	rest := all[cut:]
	for lo := 0; lo < len(rest); lo += 512 {
		hi := min(lo+512, len(rest))
		a.ApplyBatch(rest[lo:hi])
		b.ApplyBatch(rest[len(rest)-hi : len(rest)-lo])
	}
	want, err := core.RunContext(context.Background(), StoreRecords(all), DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, a.Snapshot(0), want)
	sameResults(t, b.Snapshot(0), want)

	if got, want := storeView(shared), storeView(logstore.New(prefix)); !reflect.DeepEqual(got, want) {
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("accessor %q of the seeding store changed", k)
			}
		}
		t.Fatal("the seeding store was modified by engines that adopted it")
	}
	txt, js := renderPair(t, dir, rep, early)
	if !bytes.Equal(txt, earlyTxt) || !bytes.Equal(js, earlyJS) {
		t.Fatal("snapshot taken at the seed re-renders differently after later batches")
	}
}

// TestIncrementalApplyCostTracksDelta pins the engine's complexity
// without a baseline file: the same 16-record deltas are applied, and
// snapshotted, on an engine seeded with two days of a scenario and on
// one seeded with eight days of it (4× the records, jobs and
// detections). The ratio of the median costs is a same-run number, so
// the machine cancels out. The per-batch job-table re-sort this test
// was written against read 16–21 here; linear copies alone read ≤ 2.
func TestIncrementalApplyCostTracksDelta(t *testing.T) {
	p, err := SystemProfile("S1")
	if err != nil {
		t.Fatal(err)
	}
	const day = 24 * time.Hour
	start := time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)
	scn, err := Simulate(p, start, start.Add(9*day), 42)
	if err != nil {
		t.Fatal(err)
	}
	small := scn.RecordsBetween(start.Add(6*day), start.Add(8*day))
	large := scn.RecordsBetween(start, start.Add(8*day))
	tail := scn.RecordsBetween(start.Add(8*day), start.Add(9*day))
	if len(large) < 3*len(small) || len(tail) < 32*16 {
		t.Fatalf("scenario too small: %d, %d and %d records", len(small), len(large), len(tail))
	}
	engines := [2]*Engine{NewEngine(), NewEngine()}
	engines[0].Seed(logstore.New(small))
	engines[1].Seed(logstore.New(large))

	var cost [2][]time.Duration
	for i := 0; i < 32; i++ {
		delta := tail[i*16 : (i+1)*16]
		// Alternate which engine goes first so a slow phase of the
		// machine lands on both.
		for _, e := range [2]int{i % 2, 1 - i%2} {
			t0 := time.Now()
			engines[e].ApplyBatch(delta)
			engines[e].Snapshot(0)
			cost[e] = append(cost[e], time.Since(t0))
		}
	}
	// The first delta after a seed pays the one-off move of the adopted
	// spans off the seeding store's slabs.
	var med [2]time.Duration
	for e := range cost {
		c := cost[e][1:]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		med[e] = c[len(c)/2]
	}
	ratio := float64(med[1]) / float64(med[0])
	t.Logf("16-record delta, apply+snapshot: %v on %d records, %v on %d records, ratio %.2f",
		med[0], len(small), med[1], len(large), ratio)
	if ratio >= 5 {
		t.Fatalf("a 16-record delta costs %.1f× more on 4× the corpus (%v vs %v): apply cost tracks the corpus, not the delta",
			ratio, med[1], med[0])
	}
}
