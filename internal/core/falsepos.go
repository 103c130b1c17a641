package core

import (
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
	"hpcfail/internal/stats"
)

// Alarm is one failure prediction raised from internal log patterns.
type Alarm struct {
	Node cname.Name
	Time time.Time
	// HasExternal reports whether an external indicator corroborated
	// the alarm.
	HasExternal bool
	// Hit reports whether a failure followed within the horizon.
	Hit bool
}

// Predictor implements the simple correlation-based failure predictor
// whose false-positive behaviour Fig 14 studies: an alarm is raised
// when a node logs two or more distinct indicative internal categories
// within a short burst window. With external correlation enabled, the
// alarm additionally requires an external indicator near the burst.
type Predictor struct {
	Store *logstore.Store
	Cfg   Config
	// Horizon is how far ahead an alarm's failure may occur to count as
	// a true positive.
	Horizon time.Duration
	// BurstWindow groups internal indicative events into one candidate.
	BurstWindow time.Duration
	// ExternalSlack is how far around the burst an external indicator
	// may sit to corroborate.
	ExternalSlack time.Duration
}

// NewPredictor returns a predictor with the evaluation defaults.
func NewPredictor(store *logstore.Store, cfg Config) *Predictor {
	return &Predictor{
		Store:         store,
		Cfg:           cfg,
		Horizon:       30 * time.Minute,
		BurstWindow:   10 * time.Minute,
		ExternalSlack: 30 * time.Minute,
	}
}

// Alarms scans the store and raises predictions. Detections provide the
// hit labels.
func (p *Predictor) Alarms(detections []Detection) []Alarm {
	// Gather indicative internal events per node.
	type ev struct {
		t   time.Time
		cat string
	}
	perNode := map[cname.Name][]ev{}
	for _, r := range p.Store.All() {
		if !r.Stream.Internal() || r.Severity < events.SevWarning {
			continue
		}
		if !alarmEligible(r.Category) {
			continue
		}
		// Terminal-adjacent events still count; dedup happens below.
		perNode[r.Component] = append(perNode[r.Component], ev{r.Time, r.Category})
	}
	var alarms []Alarm
	detIx := NewDetectionIndex(detections)
	for node, evs := range perNode {
		// evs are time-ascending (store order). Slide a burst window;
		// raise at the second distinct category; then skip past the
		// burst.
		i := 0
		for i < len(evs) {
			cats := map[string]bool{evs[i].cat: true}
			j := i + 1
			raised := false
			for j < len(evs) && evs[j].t.Sub(evs[i].t) <= p.BurstWindow {
				cats[evs[j].cat] = true
				if len(cats) >= 2 {
					raised = true
				}
				j++
			}
			if raised {
				at := evs[i].t
				alarms = append(alarms, Alarm{
					Node:        node,
					Time:        at,
					HasExternal: p.externalNear(node, at),
					Hit:         detIx.AnyBetween(node, at, at.Add(p.Horizon)),
				})
				// Suppress re-alarming for the same burst + horizon.
				for j < len(evs) && evs[j].t.Sub(at) <= p.Horizon {
					j++
				}
			}
			i = j
		}
	}
	return alarms
}

// alarmEligible reports whether an internal category participates in
// alarm bursts. Application-side categories (OOM kills, abnormal app
// exits, segfaults, hung tasks) are excluded: those failures manifest
// only at runtime and are not predictable ahead of time (Observation
// 5/7), so a prediction scheme does not alarm on them. Hardware,
// kernel and filesystem precursors — plus the oops/panic events — are
// the predictable patterns.
func alarmEligible(cat string) bool {
	switch cat {
	case "oom_killer", "page_alloc_failure", "segfault",
		"app_exit_abnormal", "hung_task_timeout", "mem_overallocation":
		return false
	case "kernel_panic", "kernel_oops":
		return true
	}
	_, ok := precursorCause[cat]
	return ok
}

// externalNear reports an external indicator on the node or its blade
// within ±ExternalSlack of t.
func (p *Predictor) externalNear(node cname.Name, t time.Time) bool {
	from, to := t.Add(-p.ExternalSlack), t.Add(p.ExternalSlack)
	win := p.Store.BladeWindow(node.BladeName(), from, to)
	for i := 0; i < win.Len(); i++ {
		if r := win.At(i); r.Stream.External() && externalIndicatorCategories[r.Category] {
			return true
		}
	}
	return false
}

// failureWithin reports a detection on the node in [t, t+horizon] by
// linear scan — the reference implementation DetectionIndex is
// equivalence-tested against.
func failureWithin(detections []Detection, node cname.Name, t time.Time, horizon time.Duration) bool {
	for _, d := range detections {
		if d.Node == node && !d.Time.Before(t) && d.Time.Sub(t) <= horizon {
			return true
		}
	}
	return false
}

// FPRComparison is the Fig 14 result: the predictor's false-positive
// rate with internal evidence alone versus with external correlation
// required.
type FPRComparison struct {
	WithoutExternal stats.Rates
	WithExternal    stats.Rates
}

// CompareFPR runs the predictor in both modes.
func CompareFPR(p *Predictor, detections []Detection) FPRComparison {
	alarms := p.Alarms(detections)
	var out FPRComparison
	for _, a := range alarms {
		if a.Hit {
			out.WithoutExternal.TP++
		} else {
			out.WithoutExternal.FP++
		}
		if a.HasExternal {
			if a.Hit {
				out.WithExternal.TP++
			} else {
				out.WithExternal.FP++
			}
		} else if a.Hit {
			// Suppressed alarm over a real failure: a miss in the
			// external-correlated mode.
			out.WithExternal.FN++
		}
	}
	return out
}
