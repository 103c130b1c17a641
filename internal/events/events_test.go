package events

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/cname"
)

func TestStreamNamesRoundTrip(t *testing.T) {
	for s := StreamUnknown; s <= StreamALPS; s++ {
		got, err := ParseStream(s.String())
		if err != nil {
			t.Fatalf("ParseStream(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	if _, err := ParseStream("bogus"); err == nil {
		t.Error("ParseStream should reject unknown names")
	}
}

func TestStreamFamilies(t *testing.T) {
	internal := []Stream{StreamConsole, StreamMessages, StreamConsumer}
	external := []Stream{StreamControllerBC, StreamControllerCC, StreamERD}
	for _, s := range internal {
		if !s.Internal() || s.External() {
			t.Errorf("%v should be internal only", s)
		}
	}
	for _, s := range external {
		if !s.External() || s.Internal() {
			t.Errorf("%v should be external only", s)
		}
	}
	if StreamScheduler.Internal() || StreamScheduler.External() {
		t.Error("scheduler is neither internal nor external")
	}
	if StreamALPS.Internal() || StreamALPS.External() {
		t.Error("alps is neither internal nor external")
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for s := SevInfo; s <= SevCritical; s++ {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("severity round trip %v -> %v, %v", s, got, err)
		}
	}
	if _, err := ParseSeverity("FATAL"); err == nil {
		t.Error("ParseSeverity should reject unknown labels")
	}
}

func TestFields(t *testing.T) {
	var r Record
	if r.Field("x") != "" {
		t.Error("Field on empty record should be empty")
	}
	r.SetField("b", "2")
	r.SetField("a", "1")
	if got := r.FieldsString(); got != "a=1 b=2" {
		t.Errorf("FieldsString = %q", got)
	}
	if r.Field("a") != "1" {
		t.Error("Field lookup failed")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{
		Time:      time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC),
		Stream:    StreamConsole,
		Component: cname.MustParse("c0-0c0s1n2"),
		Severity:  SevCritical,
		Category:  "kernel_panic",
		Msg:       "Kernel panic - not syncing",
	}
	s := r.String()
	for _, want := range []string{"console", "c0-0c0s1n2", "CRITICAL", "kernel_panic"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	var empty Record
	if !strings.Contains(empty.String(), "-") {
		t.Error("empty record should render '-' for component")
	}
}

func TestSortByTime(t *testing.T) {
	t0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	rs := []Record{
		{Time: t0.Add(2 * time.Second), Stream: StreamERD},
		{Time: t0, Stream: StreamConsole},
		{Time: t0.Add(time.Second), Stream: StreamMessages},
		{Time: t0, Stream: StreamConsole, Component: cname.MustParse("c0-0c0s0n1")},
		{Time: t0, Stream: StreamConsole, Component: cname.MustParse("c0-0c0s0n0")},
	}
	SortByTime(rs)
	if !sort.IsSorted(ByTime(rs)) {
		t.Fatal("not sorted")
	}
	if !rs[0].Time.Equal(t0) || rs[len(rs)-1].Stream != StreamERD {
		t.Error("unexpected order after sort")
	}
	// Tie-break: invalid component sorts before valid ones? Compare puts
	// lower-level first; just assert deterministic ordering of the two
	// same-time console records with components.
	var compNames []string
	for _, r := range rs {
		if r.Component.IsValid() {
			compNames = append(compNames, r.Component.String())
		}
	}
	if len(compNames) == 2 && compNames[0] > compNames[1] {
		t.Errorf("component tie-break not deterministic ascending: %v", compNames)
	}
}

// TestSetFieldNeverWritesInPlace: value copies of a record share its
// attribute list until one side changes it, and a change on either side
// — a new key or a new value — is seen by that side alone.
func TestSetFieldNeverWritesInPlace(t *testing.T) {
	var a Record
	a.SetField("sensor", "voltage")
	a.SetField("value", "0.91")
	b := a
	a.SetField("direction", "below")
	b.SetField("reading", "low")
	a.SetField("value", "0.93")
	if got, want := a.FieldsString(), "direction=below sensor=voltage value=0.93"; got != want {
		t.Errorf("a = %q, want %q", got, want)
	}
	if got, want := b.FieldsString(), "reading=low sensor=voltage value=0.91"; got != want {
		t.Errorf("b = %q, want %q", got, want)
	}
	for _, r := range []Record{a, b} {
		if cap(r.Fields) != len(r.Fields) {
			t.Errorf("Fields %v has spare capacity %d", r.Fields, cap(r.Fields)-len(r.Fields))
		}
	}

	// A list with spare capacity — a sub-slice of a shared slab, say —
	// is not appended to in place either.
	slab := make(Attrs, 1, 8)
	slab[0] = Attr{"k", "v"}
	c := Record{Fields: slab}
	d := c
	c.SetField("x", "1")
	d.SetField("y", "2")
	if c.Field("y") != "" || d.Field("x") != "" || slab[:2][1] != (Attr{}) {
		t.Errorf("SetField wrote into shared capacity: c=%q d=%q", c.FieldsString(), d.FieldsString())
	}
}

// TestFieldsJSONIsTheMapForm: the attribute list encodes the way the
// map[string]string it replaced did — an object with sorted keys, null
// when nil — and decodes back to a sorted list.
func TestFieldsJSONIsTheMapForm(t *testing.T) {
	var r Record
	for _, kv := range [][2]string{{"value", "0.91"}, {"direction", "<below>"}, {"sensor", "voltage"}} {
		r.SetField(kv[0], kv[1])
	}
	m := map[string]string{"value": "0.91", "direction": "<below>", "sensor": "voltage"}
	for _, c := range []struct {
		name string
		got  any
		want any
	}{
		{"set", r.Fields, m},
		{"unsorted", Attrs{{"value", "0.91"}, {"sensor", "voltage"}, {"direction", "<below>"}}, m},
		{"nil", Attrs(nil), map[string]string(nil)},
		{"empty", Attrs{}, map[string]string{}},
	} {
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(c.want)
		if string(got) != string(want) {
			t.Errorf("%s: %s, want %s", c.name, got, want)
		}
		var back Attrs
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if (back == nil) != (string(got) == "null") || !slices.IsSortedFunc(back, byKey) {
			t.Errorf("%s: decoded %#v", c.name, back)
		}
	}
	var back Record
	blob, _ := json.Marshal(r)
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Fields, r.Fields) {
		t.Errorf("round trip %v -> %v", r.Fields, back.Fields)
	}
}
