package logparse

import (
	"reflect"
	"strings"
	"testing"

	"hpcfail/internal/events"
	"hpcfail/internal/topology"
)

func TestLineScannerMatchesSplit(t *testing.T) {
	cases := []string{
		"",
		"\n",
		"\n\n\n",
		"a",
		"a\n",
		"a\nb\nc",
		"a\nb\nc\n",
		"a\n\nb\n\n",
		"one line no newline",
		strings.Repeat("x\n", 1000),
	}
	for _, in := range cases {
		want := strings.Split(strings.TrimRight(in, "\n"), "\n")
		sc := NewLineScanner(in)
		var lines []string
		for {
			l, ok := sc.Next()
			if !ok {
				break
			}
			lines = append(lines, l)
		}
		if !reflect.DeepEqual(lines, want) {
			t.Errorf("scanner on %q yielded %q, want %q", in, lines, want)
		}
	}
}

func TestLineScannerZeroAlloc(t *testing.T) {
	data := strings.Repeat("2015-03-02T00:00:00.000000Z c0-0c0s0n0 kernel: <6> boot: kernel up\n", 512)
	sc := NewLineScanner(data)
	allocs := testing.AllocsPerRun(100, func() {
		sc.off = 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("scanner allocated %.1f per full scan, want 0", allocs)
	}
}

func TestInternCanonical(t *testing.T) {
	// A parsed category must be the canonical instance, not a substring
	// of the source line.
	line := "2015-03-02T10:00:00.000000Z c0-0c0s1 bcsysd: ec_hw_error WARNING voltage fault |sensor=VDD"
	recs, errs := ParseLines(events.StreamControllerBC, topology.SchedulerSlurm, []string{line})
	if len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("parse: %d recs %v", len(recs), errs)
	}
	if recs[0].Category != "ec_hw_error" {
		t.Fatalf("category = %q", recs[0].Category)
	}
	if canon["ec_hw_error"] == "" {
		t.Fatal("ec_hw_error not in intern table")
	}
}
