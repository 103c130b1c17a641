package core

import (
	"strings"

	"hpcfail/internal/events"
	"hpcfail/internal/logstore"
)

// Degradation describes which input stream families a corpus is missing.
// The holistic methodology wants all four voices — internal node logs,
// external controller/environment logs, the scheduler log and the ALPS
// placement log; when chaos (or a real outage) silences one, the
// pipeline still runs but marks its verdicts as weaker.
type Degradation struct {
	// MissingInternal: no console/messages/consumer records. Detection
	// itself is blind without these; anything found is external-only.
	MissingInternal bool
	// MissingExternal: no controller/ERD records — no corroboration and
	// no lead-time indicators.
	MissingExternal bool
	// MissingScheduler: no scheduler log — the job table cannot be
	// rebuilt, weakening application attribution.
	MissingScheduler bool
	// MissingALPS: no placement log — apid → job resolution is lost on
	// Cray-style systems.
	MissingALPS bool
}

// Degraded reports whether any stream family is absent.
func (g Degradation) Degraded() bool {
	return g.MissingInternal || g.MissingExternal || g.MissingScheduler || g.MissingALPS
}

// Factor is the confidence multiplier applied to every diagnosis made
// from the degraded corpus: corroboration loss costs more than
// attribution loss.
func (g Degradation) Factor() float64 {
	f := 1.0
	if g.MissingInternal {
		f *= 0.5
	}
	if g.MissingExternal {
		f *= 0.8
	}
	if g.MissingScheduler {
		f *= 0.8
	}
	if g.MissingALPS {
		f *= 0.9
	}
	return f
}

// Note renders the evidence note attached to degraded diagnoses; empty
// when nothing is missing.
func (g Degradation) Note() string {
	var parts []string
	if g.MissingInternal {
		parts = append(parts, "internal node logs absent")
	}
	if g.MissingExternal {
		parts = append(parts, "no external corroboration streams")
	}
	if g.MissingScheduler {
		parts = append(parts, "scheduler log absent, job attribution weakened")
	}
	if g.MissingALPS {
		parts = append(parts, "ALPS placement log absent, apid resolution lost")
	}
	if len(parts) == 0 {
		return ""
	}
	return "degraded input: " + strings.Join(parts, "; ")
}

// AssessDegradation scans a store for the presence of each stream
// family. One pass; an empty store reports everything missing.
func AssessDegradation(store *logstore.Store) Degradation {
	var haveInt, haveExt, haveSched, haveALPS bool
	for _, r := range store.All() {
		switch {
		case r.Stream.Internal():
			haveInt = true
		case r.Stream.External():
			haveExt = true
		case r.Stream == events.StreamScheduler:
			haveSched = true
		case r.Stream == events.StreamALPS:
			haveALPS = true
		}
		if haveInt && haveExt && haveSched && haveALPS {
			break
		}
	}
	return Degradation{
		MissingInternal:  !haveInt,
		MissingExternal:  !haveExt,
		MissingScheduler: !haveSched,
		MissingALPS:      !haveALPS,
	}
}

// applyDegradation stamps a degraded corpus's weaker confidence and the
// evidence note onto every diagnosis.
func applyDegradation(diags []Diagnosis, g Degradation) {
	if !g.Degraded() {
		return
	}
	f, note := g.Factor(), g.Note()
	for i := range diags {
		diags[i].Confidence *= f
		diags[i].Degraded = true
		diags[i].Note = note
	}
}
