// Package events defines the structured event model shared by the
// simulator, the log generators, the log parsers, and the analysis
// pipeline.
//
// A Record is the normalised form of one log line. The paper's pipeline
// consults three log families — node-internal logs (console, messages,
// consumer), external environmental logs (blade/cabinet controller and
// the event-router daemon), and job-scheduler logs — and the Stream
// enumeration mirrors that taxonomy exactly so the correlation engine can
// reason about "internal" vs "external" evidence the way the paper does.
package events

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"hpcfail/internal/cname"
)

// Stream identifies which log a record came from.
type Stream int

const (
	// StreamUnknown marks an unclassified record.
	StreamUnknown Stream = iota
	// StreamConsole is the node console log (kernel messages, oops,
	// panics, MCE dumps) — internal.
	StreamConsole
	// StreamMessages is the node syslog messages stream — internal.
	StreamMessages
	// StreamConsumer is the Cray event consumer log for the node —
	// internal.
	StreamConsumer
	// StreamControllerBC is the blade controller (L0) log — external.
	StreamControllerBC
	// StreamControllerCC is the cabinet controller (L1) log — external.
	StreamControllerCC
	// StreamERD is the event router daemon stream carrying SEDC data and
	// hardware fault alerts — external.
	StreamERD
	// StreamScheduler is the job scheduler (Slurm or Torque) log.
	StreamScheduler
	// StreamALPS is the Application Level Placement Scheduler log,
	// mapping application ids (apids) to jobs and node placements on
	// Cray systems.
	StreamALPS
)

var streamNames = [...]string{
	StreamUnknown:      "unknown",
	StreamConsole:      "console",
	StreamMessages:     "messages",
	StreamConsumer:     "consumer",
	StreamControllerBC: "controller-bc",
	StreamControllerCC: "controller-cc",
	StreamERD:          "erd",
	StreamScheduler:    "scheduler",
	StreamALPS:         "alps",
}

// String returns the stream's log-file style name.
func (s Stream) String() string {
	if int(s) < len(streamNames) {
		return streamNames[s]
	}
	return fmt.Sprintf("stream(%d)", int(s))
}

// ParseStream inverts String.
func ParseStream(s string) (Stream, error) {
	for i, n := range streamNames {
		if n == s {
			return Stream(i), nil
		}
	}
	return StreamUnknown, fmt.Errorf("events: unknown stream %q", s)
}

// Internal reports whether the stream belongs to the node-internal log
// family (console/messages/consumer). The paper defines lead time
// relative to internal precursor messages; external streams are the
// candidate source of earlier indicators.
func (s Stream) Internal() bool {
	switch s {
	case StreamConsole, StreamMessages, StreamConsumer:
		return true
	}
	return false
}

// External reports whether the stream belongs to the environmental family
// (controller and ERD logs).
func (s Stream) External() bool {
	switch s {
	case StreamControllerBC, StreamControllerCC, StreamERD:
		return true
	}
	return false
}

// Severity grades a record. The generator assigns severities consistent
// with production syslog conventions; the detector keys on Error and
// above for failure confirmation.
type Severity int

const (
	// SevInfo is routine operational chatter.
	SevInfo Severity = iota
	// SevWarning covers threshold violations and suspect conditions.
	SevWarning
	// SevError covers faults that demand attention but may be survivable.
	SevError
	// SevCritical covers fatal conditions: panics, failed nodes, dead
	// heartbeats.
	SevCritical
)

var severityNames = [...]string{"INFO", "WARNING", "ERROR", "CRITICAL"}

// String returns the upper-case severity label.
func (s Severity) String() string {
	if s >= 0 && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// ParseSeverity inverts String.
func ParseSeverity(s string) (Severity, error) {
	for i, n := range severityNames {
		if n == s {
			return Severity(i), nil
		}
	}
	return SevInfo, fmt.Errorf("events: unknown severity %q", s)
}

// Record is one normalised log event.
type Record struct {
	// Time is the event timestamp.
	Time time.Time
	// Stream identifies the source log.
	Stream Stream
	// Component is the physical component the event concerns. For
	// scheduler records this is the allocated node (one record per node)
	// or invalid for job-global events.
	Component cname.Name
	// Severity grades the event.
	Severity Severity
	// Category is a stable machine-readable event tag (e.g.
	// "mce", "ec_node_failed", "oom_killer", "sedc_warning"). Categories
	// are the join keys of the analysis; Msg is for humans.
	Category string
	// Msg is the rendered human-readable message body.
	Msg string
	// JobID links scheduler records (and job-attributed node events) to
	// a job; 0 means no job association.
	JobID int64
	// Fields carries structured attributes (sensor name, reading,
	// threshold, module list, exit code, ...): key/value pairs, one per
	// key, kept sorted by key by SetField and the parsers.
	Fields Attrs
}

// Attr is one structured attribute of a record.
type Attr struct{ K, V string }

// Attrs is a record's attribute list. A list is never written in place:
// SetField builds a new one, and the parsers hand each record a
// sub-slice whose capacity ends at its last attribute, so value copies
// of a record never see each other's changes. Its JSON form is the one
// a map[string]string has — an object with sorted keys, null when nil.
type Attrs []Attr

// Field returns the named attribute or "".
func (r *Record) Field(k string) string {
	for i := range r.Fields {
		if r.Fields[i].K == k {
			return r.Fields[i].V
		}
	}
	return ""
}

// SetField sets a structured attribute: it replaces the key's value or
// inserts the key in sorted position, always into a new list exactly
// as long as the result.
func (r *Record) SetField(k, v string) {
	old := r.Fields
	i := 0
	for i < len(old) && old[i].K < k {
		i++
	}
	if i < len(old) && old[i].K == k {
		if old[i].V == v {
			return
		}
		nf := make(Attrs, len(old))
		copy(nf, old)
		nf[i].V = v
		r.Fields = nf
		return
	}
	nf := make(Attrs, len(old)+1)
	copy(nf, old[:i])
	nf[i] = Attr{k, v}
	copy(nf[i+1:], old[i:])
	r.Fields = nf
}

// byKey orders attributes by key.
func byKey(x, y Attr) int { return strings.Compare(x.K, y.K) }

// sorted returns the attributes in key order: the list itself when it
// already is, else a sorted copy.
func (a Attrs) sorted() Attrs {
	if slices.IsSortedFunc(a, byKey) {
		return a
	}
	c := slices.Clone(a)
	slices.SortStableFunc(c, byKey)
	return c
}

// MarshalJSON encodes the attributes as a JSON object with sorted keys,
// byte for byte what encoding/json writes for the equivalent map.
func (a Attrs) MarshalJSON() ([]byte, error) {
	if a == nil {
		return []byte("null"), nil
	}
	m := make(map[string]string, len(a))
	for _, kv := range a {
		m[kv.K] = kv.V
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the object form MarshalJSON writes; null leaves
// the list nil.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*a = nil
		return nil
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{k, v})
	}
	slices.SortFunc(out, byKey)
	*a = out
	return nil
}

// FieldsString renders attributes as "k1=v1 k2=v2" in sorted key order,
// suitable for embedding in a log line and for stable test output.
func (r *Record) FieldsString() string {
	if len(r.Fields) == 0 {
		return ""
	}
	var b strings.Builder
	for i, kv := range r.Fields.sorted() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(kv.K)
		b.WriteByte('=')
		b.WriteString(kv.V)
	}
	return b.String()
}

// String renders a one-line debug form.
func (r *Record) String() string {
	comp := "-"
	if r.Component.IsValid() {
		comp = r.Component.String()
	}
	return fmt.Sprintf("%s %s %s %s [%s] %s",
		r.Time.UTC().Format(time.RFC3339), r.Stream, comp, r.Severity, r.Category, r.Msg)
}

// ByTime sorts records chronologically, breaking ties by stream then
// component so that sorted output is deterministic.
type ByTime []Record

func (s ByTime) Len() int      { return len(s) }
func (s ByTime) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s ByTime) Less(i, j int) bool {
	if !s[i].Time.Equal(s[j].Time) {
		return s[i].Time.Before(s[j].Time)
	}
	if s[i].Stream != s[j].Stream {
		return s[i].Stream < s[j].Stream
	}
	return cname.Compare(s[i].Component, s[j].Component) < 0
}

// SortByTime sorts records in place chronologically, preserving the
// relative order of records that compare equal under ByTime (a stable
// sort, which shard-merge equivalence depends on).
//
// Records are wide values, so instead of sort.Stable's swap-heavy
// in-place merge this sorts lightweight (time, index) keys — falling
// back to the full ByTime order plus the original index on ties, which
// is exactly stable order — and permutes once. Generator output is
// usually already sorted, in which case a single linear scan is all
// that runs.
func SortByTime(rs []Record) {
	if len(rs) < 2 {
		return
	}
	bt := ByTime(rs)
	sorted := true
	for i := 1; i < len(rs); i++ {
		if bt.Less(i, i-1) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	type sortKey struct {
		t   int64
		idx int32
	}
	keys := make([]sortKey, len(rs))
	for i := range rs {
		keys[i] = sortKey{rs[i].Time.UnixNano(), int32(i)}
	}
	slices.SortFunc(keys, func(ka, kb sortKey) int {
		if ka.t != kb.t {
			return cmp.Compare(ka.t, kb.t)
		}
		ra, rb := &rs[ka.idx], &rs[kb.idx]
		if ra.Stream != rb.Stream {
			return cmp.Compare(ra.Stream, rb.Stream)
		}
		if c := cname.Compare(ra.Component, rb.Component); c != 0 {
			return c
		}
		return cmp.Compare(ka.idx, kb.idx)
	})
	// Apply the permutation in place by following its cycles (each
	// record moves exactly once; no second record-sized buffer).
	for i := range keys {
		src := int(keys[i].idx)
		if src < 0 || src == i {
			keys[i].idx = -1
			continue
		}
		tmp := rs[i]
		j := i
		for src != i {
			rs[j] = rs[src]
			keys[j].idx = -1
			j = src
			src = int(keys[j].idx)
		}
		rs[j] = tmp
		keys[j].idx = -1
	}
}
