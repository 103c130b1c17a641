package hpcfail

// FuzzApplyBatch cross-checks the incremental engine against the batch
// pipeline on fuzzer-shaped ingest schedules. Each input derives (a) a
// record mix: a slice of a chaos-damaged reference corpus plus whatever
// records parse out of the fuzz bytes themselves when read as raw log
// lines on every stream, and (b) a schedule: arrival-order
// perturbation and batch cut points. Any Result divergence from a
// from-scratch RunContext after any batch — or any panic — is a
// failure. The seed corpus is raw chunks of the chaos corpus files, so
// the fuzzer starts from realistic damaged lines.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/topology"
)

var fuzzStreams = []events.Stream{
	events.StreamConsole, events.StreamMessages, events.StreamConsumer,
	events.StreamControllerBC, events.StreamControllerCC, events.StreamERD,
	events.StreamScheduler, events.StreamALPS,
}

func FuzzApplyBatch(f *testing.F) {
	scn := equivScenario(f, 23)
	dir := equivCorpus{name: "chaos-mixed", chaos: ChaosConfig{
		Drop: 0.05, Garble: 0.08, Truncate: 0.05, Duplicate: 0.05, Seed: 17}}.write(f, scn)
	store, _, err := LoadLogsReport(dir, topology.SchedulerSlurm)
	if err != nil {
		f.Fatal(err)
	}
	pool := store.All()
	if len(pool) == 0 {
		f.Fatal("empty reference corpus")
	}

	// Seed from the chaos corpora: one raw chunk per stream file.
	for _, s := range fuzzStreams {
		raw, err := os.ReadFile(filepath.Join(dir, loggen.FileName(s)))
		if err != nil || len(raw) == 0 {
			continue
		}
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		f.Add(raw)
	}
	f.Add([]byte("\x00\x01\x02tiny"))
	f.Add([]byte(strings.Repeat("A", 300)))

	cfg := DefaultPipelineConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		// The engine, not the line parser, is under test: bound the raw
		// input so pathological single lines can't dominate an exec.
		if len(data) > 4096 {
			data = data[:4096]
		}
		// The schedule is driven by explicit header bytes (not a hash of
		// the whole input) so the minimizer shrinking the tail doesn't
		// reshuffle the entire workload.
		pick := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		start := (pick(0)<<8 | pick(1)) % len(pool)
		n := (pick(2)<<8 | pick(3)) % 300
		rng := rand.New(rand.NewSource(int64(pick(4)<<16 | pick(5)<<8 | pick(6))))

		// Record mix: a bounded slice of the reference pool...
		end := start + n
		if end > len(pool) {
			end = len(pool)
		}
		mix := make([]events.Record, end-start)
		copy(mix, pool[start:end])

		// ...plus the fuzz bytes parsed as raw log lines on every stream
		// (damaged lines quarantine, surviving ones become records).
		body := data
		if len(body) > 7 {
			body = body[7:]
		}
		lines := strings.Split(string(body), "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		for _, s := range fuzzStreams {
			recs, _ := logparse.ParseLinesReport(s, topology.SchedulerSlurm, lines)
			mix = append(mix, recs...)
		}
		if len(mix) == 0 {
			return
		}

		// Schedule: perturbed arrival order, random batch cuts.
		arrivals := perturbArrival(mix, rng, 0.3, 32)
		batches := splitBatches(arrivals, rng, 1+pick(7)%6)

		eng := NewEngine()
		var arrived []Record
		for _, b := range batches {
			eng.ApplyBatch(b)
			arrived = append(arrived, b...)
			got := eng.Snapshot(0)
			want, err := core.RunContext(context.Background(), StoreRecords(arrived), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, got, want)
		}
	})
}
