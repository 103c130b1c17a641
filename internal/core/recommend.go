package core

import (
	"fmt"
	"sort"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/faults"
)

// Recommendation is one actionable operator suggestion derived from
// measured failure behaviour — the executable form of the paper's
// Table VI (findings → suggested recommendations).
type Recommendation struct {
	// Finding states the measured condition that fired the rule.
	Finding string
	// Action is the paper's suggested response.
	Action string
	// Severity ranks urgency: 2 = act now, 1 = plan, 0 = informational.
	Severity int
}

// BuggyJob is a job implicated in repeated node failures — the paper's
// "track the buggy APID" recommendation target.
type BuggyJob struct {
	JobID    int64
	App      string
	Failures int
}

// BuggyJobs returns jobs with at least minFailures attributed failures,
// most damaging first.
func (a *JobAnalyzer) BuggyJobs(minFailures int) []BuggyJob {
	counts := map[int64]int{}
	for _, d := range a.Diagnoses {
		if d.JobID != 0 {
			counts[d.JobID]++
		}
	}
	var out []BuggyJob
	for id, n := range counts {
		if n >= minFailures {
			out = append(out, BuggyJob{JobID: id, App: a.app(id), Failures: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Failures != out[j].Failures {
			return out[i].Failures > out[j].Failures
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}

// Recommend derives Table VI-style recommendations from a pipeline
// result. Every rule is driven by a measured statistic, so the output
// changes with the system's actual behaviour.
func Recommend(res *Result) []Recommendation {
	var out []Recommendation
	n := len(res.Diagnoses)
	if n == 0 {
		return nil
	}

	// Finding 1: daily failures share root causes → make reactive
	// schemes cause-aware.
	days := res.DominantDailyCauses(3)
	highShare := 0
	for _, d := range days {
		if d.Share >= 0.5 {
			highShare++
		}
	}
	if len(days) > 0 && highShare*2 >= len(days) {
		out = append(out, Recommendation{
			Severity: 1,
			Finding: fmt.Sprintf("%d of %d multi-failure days are dominated by a single root cause",
				highShare, len(days)),
			Action: "consult the dominant cause and failure temporal locality before launching checkpoint/restart — fixing the dominant fault recovers most of the day's failures",
		})
	}

	// Finding 2: lead-time enhancement is available → wire external
	// correlations into prediction.
	lt := SummarizeLeadTimes(res.Diagnoses)
	if lt.Enhanceable > 0 {
		out = append(out, Recommendation{
			Severity: 1,
			Finding: fmt.Sprintf("%d of %d failures (%.0f%%) showed early external indicators extending lead times %.1fx",
				lt.Enhanceable, lt.Total, lt.EnhanceableFraction()*100, lt.MeanFactor),
			Action: "incorporate blade/cabinet external correlations (ec_hw_errors, NVFs, link errors) into failure prediction for proactive fault tolerance",
		})
	}

	// Finding 3: application-triggered failures → inform users / block
	// jobs instead of quarantining nodes.
	appTriggered := 0
	for _, d := range res.Diagnoses {
		if d.AppTriggered {
			appTriggered++
		}
	}
	if frac := float64(appTriggered) / float64(n); frac >= 0.25 {
		out = append(out, Recommendation{
			Severity: 2,
			Finding: fmt.Sprintf("%.0f%% of failures are application-triggered (OOM, abnormal exits, job-prompted FS bugs)",
				frac*100),
			Action: "do not quarantine the nodes — they recover under new jobs; notify the submitting users and consider NHC-level blocking of the buggy executables",
		})
	}

	// Finding 4: specific buggy jobs → track APIDs.
	if buggy := res.JobAnalyzer().BuggyJobs(3); len(buggy) > 0 {
		top := buggy[0]
		out = append(out, Recommendation{
			Severity: 2,
			Finding: fmt.Sprintf("%d job(s) each triggered 3+ node failures (worst: job %d/%s with %d)",
				len(buggy), top.JobID, top.App, top.Failures),
			Action: "add an NHC health test tracking buggy APIDs: repeated abnormal application exits should flag the job, not just admindown the nodes",
		})
	}

	// Finding 5: unknown causes → operator/vendor follow-up.
	if unknown := res.CauseBreakdown()[faults.CauseUnknown]; unknown > 0 {
		out = append(out, Recommendation{
			Severity: 0,
			Finding:  fmt.Sprintf("%d failures have no deducible root cause (silent shutdowns, opaque BIOS/L0 patterns)", unknown),
			Action:   "escalate to operators/vendor: these may be manual shutdowns by accident or require vendor-level instrumentation (Observation 9)",
		})
	}

	// Finding 6: kernel oops with long traces → automate trace mining.
	withTraces := 0
	for _, d := range res.Diagnoses {
		if d.KeySymbol != "" {
			withTraces++
		}
	}
	if frac := float64(withTraces) / float64(n); frac >= 0.3 {
		out = append(out, Recommendation{
			Severity: 0,
			Finding:  fmt.Sprintf("%.0f%% of failures carried classifiable kernel call traces", frac*100),
			Action:   "a machine-learning-guided study of call traces can further narrow buggy code paths and segregate job-triggered from job-caused failures",
		})
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out
}

// NodeAction is one per-node actionable item derived from a diagnosis —
// the bridge between post-hoc analysis and the remediation engine's
// condition vocabulary. Kind uses the remedy SOP names ("admindown",
// "suspect", "notify").
type NodeAction struct {
	// Node is the node to act on.
	Node cname.Name
	// Kind names the action ("admindown", "suspect", "notify").
	Kind string
	// Time is the diagnosed failure time the action responds to.
	Time time.Time
	// Cause is the root-cause bucket driving the choice of action.
	Cause string
	// JobID is the implicated job for notify actions (0 when none).
	JobID int64
}

// RecommendActions projects a pipeline result onto per-node actions in
// a fully deterministic order: stable sort by node (canonical cname
// order), then kind. The remediation queue consumes this list, so the
// ordering is load-bearing — two runs over the same result must enqueue
// identically.
func RecommendActions(res *Result) []NodeAction {
	var out []NodeAction
	for _, d := range res.Diagnoses {
		det := d.Detection
		switch {
		case d.AppTriggered:
			// App-triggered failures recover under new jobs; the action
			// targets the job's owner, not the node (Finding 3).
			out = append(out, NodeAction{
				Node: det.Node, Kind: "notify", Time: det.Time,
				Cause: d.Cause.String(), JobID: d.JobID,
			})
			out = append(out, NodeAction{
				Node: det.Node, Kind: "suspect", Time: det.Time,
				Cause: d.Cause.String(),
			})
		default:
			out = append(out, NodeAction{
				Node: det.Node, Kind: "admindown", Time: det.Time,
				Cause: d.Cause.String(), JobID: d.JobID,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if c := cname.Compare(out[i].Node, out[j].Node); c != 0 {
			return c < 0
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		// Total order even for repeat failures on one node: time, then
		// cause, then job — input order never shows through.
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		if out[i].Cause != out[j].Cause {
			return out[i].Cause < out[j].Cause
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}
