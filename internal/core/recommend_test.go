package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hpcfail/internal/cname"
)

func TestRecommendEmpty(t *testing.T) {
	if recs := Recommend(&Result{}); recs != nil {
		t.Errorf("empty result should yield no recommendations, got %v", recs)
	}
}

func TestRecommendFromScenario(t *testing.T) {
	_, store := buildScenario(t, 14, 211)
	res := Run(store, DefaultConfig())
	recs := Recommend(res)
	if len(recs) < 3 {
		t.Fatalf("expected several recommendations, got %d", len(recs))
	}
	// Sorted by severity descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Severity > recs[i-1].Severity {
			t.Error("recommendations not sorted by severity")
		}
	}
	// The app-triggered and lead-time rules must fire on a standard S1
	// scenario.
	var joined strings.Builder
	for _, r := range recs {
		if r.Finding == "" || r.Action == "" {
			t.Errorf("empty recommendation field: %+v", r)
		}
		joined.WriteString(r.Finding)
		joined.WriteString(r.Action)
	}
	text := joined.String()
	for _, want := range []string{"application-triggered", "external"} {
		if !strings.Contains(text, want) {
			t.Errorf("recommendations missing %q topic:\n%s", want, text)
		}
	}
}

// TestRecommendOrderingGolden pins the recommendation order: severity
// descending, rule order within a severity band (the order the rules
// appear in Recommend). The remedy queue consumes downstream action
// lists, so any reordering here must be a deliberate, test-visible
// change.
func TestRecommendOrderingGolden(t *testing.T) {
	_, store := buildScenario(t, 14, 211)
	res := Run(store, DefaultConfig())
	recs := Recommend(res)
	if len(recs) == 0 {
		t.Fatal("scenario produced no recommendations")
	}
	var got []string
	for _, r := range recs {
		got = append(got, ruleTopic(r))
	}
	// The canonical order: severity descending, rule order within a
	// band. Rules whose statistic did not trip simply drop out, so the
	// emitted list must be a subsequence of the canon.
	canon := []string{
		"application-triggered",
		"buggy-jobs",
		"dominant-cause",
		"lead-time",
		"unknown-cause",
		"call-traces",
	}
	ci := 0
	for _, topic := range got {
		for ci < len(canon) && canon[ci] != topic {
			ci++
		}
		if ci == len(canon) {
			t.Fatalf("recommendation order changed:\n got %v\nwant subsequence of %v", got, canon)
		}
		ci++
	}
	if len(got) < 4 {
		t.Fatalf("expected at least 4 rules to fire on S1, got %v", got)
	}
	// Re-running the pipeline reproduces the exact same list.
	again := Recommend(Run(store, DefaultConfig()))
	if !reflect.DeepEqual(recs, again) {
		t.Fatal("Recommend is not deterministic across runs")
	}
}

// ruleTopic maps a recommendation back to the rule that emitted it.
func ruleTopic(r Recommendation) string {
	switch {
	case strings.Contains(r.Finding, "application-triggered"):
		return "application-triggered"
	case strings.Contains(r.Action, "buggy APIDs"):
		return "buggy-jobs"
	case strings.Contains(r.Finding, "dominated by a single root cause"):
		return "dominant-cause"
	case strings.Contains(r.Finding, "external indicators"):
		return "lead-time"
	case strings.Contains(r.Finding, "no deducible root cause"):
		return "unknown-cause"
	case strings.Contains(r.Finding, "call traces"):
		return "call-traces"
	default:
		return "unknown-rule:" + r.Finding
	}
}

// TestRecommendActionsDeterministic checks the per-node action list is
// sorted by (node in cname.Compare order, kind) and invariant under
// diagnosis shuffling.
func TestRecommendActionsDeterministic(t *testing.T) {
	_, store := buildScenario(t, 14, 211)
	res := Run(store, DefaultConfig())
	acts := RecommendActions(res)
	if len(acts) == 0 {
		t.Fatal("scenario produced no node actions")
	}
	for i := 1; i < len(acts); i++ {
		c := cname.Compare(acts[i-1].Node, acts[i].Node)
		if c > 0 {
			t.Fatalf("actions not in cname order at %d: %s after %s",
				i, acts[i].Node, acts[i-1].Node)
		}
		if c == 0 && acts[i-1].Kind > acts[i].Kind {
			t.Fatalf("actions not sorted by kind within node %s: %q after %q",
				acts[i].Node, acts[i].Kind, acts[i-1].Kind)
		}
	}
	notify := 0
	for _, a := range acts {
		if a.Kind == "notify" {
			notify++
			if a.JobID == 0 && a.Cause == "" {
				t.Errorf("notify action with no job or cause: %+v", a)
			}
		}
	}
	if notify == 0 {
		t.Error("S1 scenario should produce notify actions for app-triggered failures")
	}

	// Shuffling the diagnosis order must not change the action list.
	shuffled := *res
	shuffled.Diagnoses = append([]Diagnosis(nil), res.Diagnoses...)
	rng := rand.New(rand.NewSource(97))
	rng.Shuffle(len(shuffled.Diagnoses), func(i, j int) {
		shuffled.Diagnoses[i], shuffled.Diagnoses[j] = shuffled.Diagnoses[j], shuffled.Diagnoses[i]
	})
	if got := RecommendActions(&shuffled); !reflect.DeepEqual(got, acts) {
		t.Fatal("RecommendActions order depends on diagnosis order")
	}
}

func TestBuggyJobs(t *testing.T) {
	_, store := buildScenario(t, 14, 223)
	res := Run(store, DefaultConfig())
	buggy := res.JobAnalyzer().BuggyJobs(3)
	if len(buggy) == 0 {
		t.Fatal("two weeks of app episodes should implicate at least one job")
	}
	prev := 1 << 30
	for _, b := range buggy {
		if b.Failures < 3 {
			t.Errorf("job %d below threshold: %d", b.JobID, b.Failures)
		}
		if b.Failures > prev {
			t.Error("buggy jobs not sorted by failures desc")
		}
		prev = b.Failures
		if b.JobID == 0 {
			t.Error("buggy job without ID")
		}
	}
	// Threshold respected: raising it shrinks the list.
	if len(res.JobAnalyzer().BuggyJobs(1<<20)) != 0 {
		t.Error("absurd threshold should return nothing")
	}
}
