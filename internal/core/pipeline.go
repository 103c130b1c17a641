package core

import (
	"context"
	"time"

	"hpcfail/internal/alps"
	"hpcfail/internal/events"
	"hpcfail/internal/faults"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/stats"
	"hpcfail/internal/workload"
)

// Result is the end-to-end pipeline output for one log corpus.
type Result struct {
	// Store is the ingested corpus.
	Store *logstore.Store
	// Jobs is the scheduler-log-reconstructed job table.
	Jobs []workload.Job
	// Detections are the confirmed failures, time-ascending.
	Detections []Detection
	// Diagnoses carry per-failure root-cause verdicts, aligned with
	// Detections.
	Diagnoses []Diagnosis
	// Degradation records which stream families the corpus was missing;
	// when any are, every diagnosis carries lowered confidence and a
	// note (the zero value means a complete corpus).
	Degradation Degradation
}

// scanStore builds the job table, the apid → job index and the
// detection list in one traversal of the sorted records (previously
// three separate store.All() scans).
func scanStore(recs []events.Record, cfg Config) ([]workload.Job, map[int64]int64, []Detection) {
	jobsB := logparse.NewJobTableBuilder()
	apidsB := alps.NewIndexBuilder()
	dt := newDetector(cfg)
	for i := range recs {
		r := &recs[i]
		jobsB.Add(r)
		apidsB.Add(r)
		dt.add(r)
	}
	return jobsB.Jobs(), apidsB.Index(), dt.out
}

// Run executes the full methodology over a store: detect failures,
// rebuild the job table and the apid → job resolution, diagnose every
// failure.
func Run(store *logstore.Store, cfg Config) *Result {
	res, _ := RunContext(context.Background(), store, cfg)
	return res
}

// RunContext is Run under a context: cancellation (or a per-request
// deadline, as the serving layer threads through) stops the per-failure
// diagnosis loop between diagnoses and returns ctx.Err() with a nil
// result. With an uncancelled context it is identical to Run. lost may
// fold an ingestion supervisor's lost-chunk count into the degradation
// assessment via RunContextReport.
func RunContext(ctx context.Context, store *logstore.Store, cfg Config) (*Result, error) {
	return RunContextReport(ctx, store, cfg, 0)
}

// RunContextReport is RunContext with an ingestion supervisor's
// lost-chunk count folded into the degradation assessment — the
// sequential-store counterpart of RunShardedReport, for callers (the
// HTTP server) that carry an IngestReport alongside a merged store.
func RunContextReport(ctx context.Context, store *logstore.Store, cfg Config, lostChunks int) (*Result, error) {
	jobs, apids, dets := scanStore(store.All(), cfg)
	rc := &RootCauser{Store: store, Jobs: jobs, Cfg: cfg, Apids: apids}
	diags := make([]Diagnosis, len(dets))
	for i, d := range dets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diags[i] = rc.Diagnose(d)
	}
	deg := AssessDegradation(store)
	deg.LostChunks = lostChunks
	applyDegradation(diags, deg)
	return &Result{Store: store, Jobs: jobs, Detections: dets, Diagnoses: diags, Degradation: deg}, nil
}

// CauseBreakdown tallies diagnoses per root cause — the Fig 15/16 view.
func (r *Result) CauseBreakdown() map[faults.Cause]int {
	out := map[faults.Cause]int{}
	for _, d := range r.Diagnoses {
		out[d.Cause]++
	}
	return out
}

// ClassBreakdown tallies diagnoses per layer — the §III-F S3 view.
func (r *Result) ClassBreakdown() map[faults.Class]int {
	out := map[faults.Class]int{}
	for _, d := range r.Diagnoses {
		out[d.Class]++
	}
	return out
}

// FailureTimes returns detection timestamps in order.
func (r *Result) FailureTimes() []time.Time {
	out := make([]time.Time, len(r.Detections))
	for i, d := range r.Detections {
		out[i] = d.Time
	}
	return out
}

// MTBF summarises inter-failure gaps over the whole result (Fig 3).
func (r *Result) MTBF() stats.Summary {
	return stats.MTBF(r.FailureTimes())
}

// DominantDailyCause computes, per day, the share of failures explained
// by that day's most common cause (Fig 4's 65–82 %).
type DominantDay struct {
	Day      time.Time
	Failures int
	Dominant faults.Cause
	Share    float64
}

// DominantDailyCauses returns days (with ≥ minFailures failures) and
// their dominant-cause shares, ascending by day.
func (r *Result) DominantDailyCauses(minFailures int) []DominantDay {
	type key struct {
		day   time.Time
		cause faults.Cause
	}
	perDay := map[time.Time]int{}
	perDayCause := map[key]int{}
	for _, d := range r.Diagnoses {
		day := d.Detection.Time.UTC().Truncate(24 * time.Hour)
		perDay[day]++
		perDayCause[key{day, d.Cause}]++
	}
	var out []DominantDay
	for day, total := range perDay {
		if total < minFailures {
			continue
		}
		best := DominantDay{Day: day, Failures: total}
		bestCount := 0
		for _, c := range faults.AllCauses() {
			if n := perDayCause[key{day, c}]; n > bestCount {
				bestCount = n
				best.Dominant = c
				best.Share = float64(n) / float64(total)
			}
		}
		out = append(out, best)
	}
	sortDominant(out)
	return out
}

func sortDominant(ds []DominantDay) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Day.Before(ds[j-1].Day); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// Downtime measures each detected failure's outage: the gap between the
// terminal event and the node's next boot record. Failures with no boot
// in the log window are omitted (still down at window end). The result
// quantifies the abstract's "reduced computational capability" in
// node-minutes.
func (r *Result) Downtime() []time.Duration {
	var out []time.Duration
	_, last, ok := r.Store.Span()
	if !ok {
		return nil
	}
	for _, d := range r.Detections {
		win := r.Store.NodeWindow(d.Node, d.Time, last.Add(time.Second))
		for i := 0; i < win.Len(); i++ {
			if rec := win.At(i); rec.Category == "node_boot" {
				out = append(out, rec.Time.Sub(d.Time))
				break
			}
		}
	}
	return out
}

// DowntimeSummary returns the outage-duration statistics in minutes.
func (r *Result) DowntimeSummary() stats.Summary {
	ds := r.Downtime()
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Minutes()
	}
	return stats.Summarize(xs)
}

// JobAnalyzer returns the application-side analyzer over this result.
func (r *Result) JobAnalyzer() *JobAnalyzer {
	return &JobAnalyzer{Jobs: r.Jobs, Diagnoses: r.Diagnoses}
}

// Correlator returns the external-influence analyzer over this result.
func (r *Result) Correlator(cfg Config) *Correlator {
	return &Correlator{Store: r.Store, Detections: r.Detections, Cfg: cfg}
}
