package cname

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// stringRef is the original fmt-based renderer String must match
// byte-for-byte.
func stringRef(n Name) string {
	var b strings.Builder
	if n.Level() == LevelInvalid {
		return "<invalid cname>"
	}
	fmt.Fprintf(&b, "c%d-%d", n.Col(), n.Row())
	if n.Level() >= LevelChassis {
		fmt.Fprintf(&b, "c%d", n.ChassisIndex())
	}
	if n.Level() >= LevelBlade {
		fmt.Fprintf(&b, "s%d", n.SlotIndex())
	}
	if n.Level() >= LevelNode {
		fmt.Fprintf(&b, "n%d", n.NodeIndex())
	}
	return b.String()
}

// compressRef is the original map-and-fmt CompressNodeList.
func compressRef(nodes []Name) string {
	byBlade := map[Name][]int{}
	var blades []Name
	for _, n := range nodes {
		if n.Level() != LevelNode {
			continue
		}
		b := n.BladeName()
		if _, seen := byBlade[b]; !seen {
			blades = append(blades, b)
		}
		byBlade[b] = append(byBlade[b], n.NodeIndex())
	}
	sort.Slice(blades, func(i, j int) bool { return Compare(blades[i], blades[j]) < 0 })
	var parts []string
	for _, b := range blades {
		idx := byBlade[b]
		sort.Ints(idx)
		dedup := idx[:0]
		for i, v := range idx {
			if i == 0 || v != idx[i-1] {
				dedup = append(dedup, v)
			}
		}
		if len(dedup) == 1 {
			parts = append(parts, fmt.Sprintf("%sn%d", b, dedup[0]))
			continue
		}
		var rb strings.Builder
		for i := 0; i < len(dedup); {
			j := i
			for j+1 < len(dedup) && dedup[j+1] == dedup[j]+1 {
				j++
			}
			if rb.Len() > 0 {
				rb.WriteByte(',')
			}
			if j > i {
				fmt.Fprintf(&rb, "%d-%d", dedup[i], dedup[j])
			} else {
				fmt.Fprintf(&rb, "%d", dedup[i])
			}
			i = j + 1
		}
		parts = append(parts, fmt.Sprintf("%sn[%s]", b, rb.String()))
	}
	return strings.Join(parts, ",")
}

func TestStringMatchesReference(t *testing.T) {
	names := []Name{
		Cabinet(0, 0), Cabinet(12, 3), Cabinet(123, 45),
		Chassis(1, 0, 2), Blade(1, 0, 2, 15), Node(1, 0, 2, 15, 3),
		Node(0, 0, 0, 0, 0), Node(31, 7, 2, 9, 1),
	}
	for _, n := range names {
		if got, want := n.String(), stringRef(n); got != want {
			t.Errorf("String(%#x) = %q, want %q", n.Key(), got, want)
		}
	}
	if got := (Name{}).String(); got != "<invalid cname>" {
		t.Errorf("zero Name renders %q", got)
	}
}

// compareRef is the original field-wise Compare: row, col, chassis,
// slot, node, level.
func compareRef(a, b Name) int {
	key := func(n Name) [6]int {
		return [6]int{n.Row(), n.Col(), n.ChassisIndex(), n.SlotIndex(), n.NodeIndex(), int(n.Level())}
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		switch {
		case ka[i] < kb[i]:
			return -1
		case ka[i] > kb[i]:
			return 1
		}
	}
	return 0
}

func TestCompareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randName := func() Name {
		switch rng.Intn(5) {
		case 0:
			return Name{}
		case 1:
			return Cabinet(rng.Intn(3), rng.Intn(3))
		case 2:
			return Chassis(rng.Intn(3), rng.Intn(3), rng.Intn(3))
		case 3:
			return Blade(rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(4))
		default:
			return Node(rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(4), rng.Intn(4))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randName(), randName()
		if got, want := Compare(a, b), compareRef(a, b); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

func TestCompressNodeListMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(30)
		nodes := make([]Name, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0: // non-node names must be ignored
				nodes = append(nodes, Blade(rng.Intn(2), rng.Intn(2), rng.Intn(3), rng.Intn(16)))
			case 1:
				nodes = append(nodes, Name{})
			default:
				nodes = append(nodes, Node(rng.Intn(2), rng.Intn(2), rng.Intn(3), rng.Intn(16), rng.Intn(4)))
			}
		}
		if rng.Intn(2) == 0 { // half the trials pre-sorted (the hot path)
			sort.Slice(nodes, func(i, j int) bool { return Compare(nodes[i], nodes[j]) < 0 })
		}
		in := append([]Name(nil), nodes...)
		got := CompressNodeList(nodes)
		want := compressRef(in)
		if got != want {
			t.Fatalf("trial %d: CompressNodeList = %q, want %q (input %v)", trial, got, want, in)
		}
		// Round trip must still hold.
		if got != "" {
			expanded, err := ExpandNodeList(got)
			if err != nil {
				t.Fatalf("ExpandNodeList(%q): %v", got, err)
			}
			set := map[Name]bool{}
			for _, x := range expanded {
				set[x] = true
			}
			for _, x := range in {
				if x.Level() == LevelNode && !set[x] {
					t.Fatalf("round trip lost %v from %q", x, got)
				}
			}
		}
	}
}

func BenchmarkCompressNodeList(b *testing.B) {
	var nodes []Name
	for s := 0; s < 4; s++ {
		for n := 0; n < 4; n++ {
			nodes = append(nodes, Node(0, 0, 1, s, n))
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return Compare(nodes[i], nodes[j]) < 0 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressNodeList(nodes)
	}
}

func BenchmarkNameString(b *testing.B) {
	n := Node(1, 0, 2, 15, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.String()
	}
}
