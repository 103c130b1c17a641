// External test package: the chaos injector (used for corrupted seed
// corpora) transitively imports cname, so these fuzz targets cannot
// live inside package cname without an import cycle.
package cname_test

import (
	"testing"

	"hpcfail/internal/chaos"
	"hpcfail/internal/cname"
)

// Fuzz targets: identifier parsing must never panic, and anything that
// parses must re-render to an equivalent value.

// chaosSeeds derives deterministic corrupted variants of valid inputs —
// the byte-level damage a garbled log line inflicts on embedded cnames:
// every chaos mode's rendering, then each input with a stray carriage
// return, with leading padding, and cut off halfway.
func chaosSeeds(label string, valid []string) []string {
	var out []string
	for _, mode := range chaos.AllModes() {
		inj := chaos.New(chaos.ForMode(mode, 0.9, 23))
		out = append(out, inj.CorruptLines(label+"/"+string(mode), valid)...)
	}
	for _, s := range valid {
		out = append(out, s+"\r", " "+s, s[:len(s)/2])
	}
	return out
}

func FuzzParse(f *testing.F) {
	valid := []string{"c0-0", "c1-0c2s7n3", "c12-3c2s15n0", "c0-0c9s99n9"}
	for _, s := range valid {
		f.Add(s)
	}
	f.Add("")
	f.Add("c-")
	for _, s := range chaosSeeds("parse", valid) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := cname.Parse(s)
		if err != nil {
			return
		}
		back, err2 := cname.Parse(n.String())
		if err2 != nil || back != n {
			t.Fatalf("re-parse of %q -> %v failed: %v %v", s, n, back, err2)
		}
	})
}

func FuzzExpandNodeList(f *testing.F) {
	valid := []string{"c0-0c0s0n[0-3],c1-0c2s7n3", "c0-0c0s0n[0,2]"}
	for _, s := range valid {
		f.Add(s)
	}
	f.Add("[[[]]]")
	f.Add("c0-0c0s0n[0-")
	f.Add(",,,")
	for _, s := range chaosSeeds("nodelist", valid) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		nodes, err := cname.ExpandNodeList(s)
		if err != nil {
			return
		}
		// Everything expanded must survive a compress/expand cycle.
		back, err2 := cname.ExpandNodeList(cname.CompressNodeList(nodes))
		if err2 != nil {
			t.Fatalf("re-expand failed for %q: %v", s, err2)
		}
		want := map[cname.Name]bool{}
		for _, n := range nodes {
			if n.Level() == cname.LevelNode {
				want[n] = true
			}
		}
		for _, n := range back {
			if !want[n] {
				t.Fatalf("round trip invented node %v from %q", n, s)
			}
		}
	})
}

func FuzzParseNID(f *testing.F) {
	valid := []string{"nid00042"}
	f.Add("nid00042")
	f.Add("nid")
	f.Add("x")
	for _, s := range chaosSeeds("nid", valid) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if v, err := cname.ParseNID(s); err == nil {
			if cname.NIDString(v) == "" {
				t.Fatal("render of parsed nid empty")
			}
		}
	})
}
