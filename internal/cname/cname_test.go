package cname

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestStringForms(t *testing.T) {
	cases := []struct {
		n    Name
		want string
	}{
		{Cabinet(0, 0), "c0-0"},
		{Cabinet(12, 3), "c12-3"},
		{Chassis(1, 0, 2), "c1-0c2"},
		{Blade(1, 0, 2, 7), "c1-0c2s7"},
		{Node(1, 0, 2, 7, 3), "c1-0c2s7n3"},
	}
	for _, c := range cases {
		if got := c.n.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"c0-0", "c3-1c2", "c10-0c1s15", "c2-2c0s0n0", "c7-1c2s9n3",
		"c1048575-0", "c0-1048575", "c1048575-1048575c2s15n3"} {
		n, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if n.String() != s {
			t.Errorf("round trip %q -> %q", s, n.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "c", "c0", "c-0", "c0-", "x0-0", "c0-0x1", "c0-0c3", // chassis 3 out of range
		"c0-0c0s16",   // slot out of range
		"c0-0c0s0n4",  // node out of range
		"c0-0c0s0n1x", // trailing garbage
		"c0-0s0",      // slot without chassis
		"c0-0c0n1",    // node without slot
		"c1048576-0",  // column above MaxCoord
		"c0-1048576",  // row above MaxCoord
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestLevels(t *testing.T) {
	if Cabinet(0, 0).Level() != LevelCabinet {
		t.Error("cabinet level wrong")
	}
	if Node(0, 0, 1, 2, 3).Level() != LevelNode {
		t.Error("node level wrong")
	}
	if (Name{}).IsValid() {
		t.Error("zero Name should be invalid")
	}
	if Level(99).String() != "invalid" {
		t.Error("unknown level should stringify as invalid")
	}
}

func TestContainment(t *testing.T) {
	node := Node(1, 0, 2, 7, 3)
	if !node.CabinetName().Contains(node) {
		t.Error("cabinet should contain its node")
	}
	if !node.BladeName().Contains(node) {
		t.Error("blade should contain its node")
	}
	if !node.Contains(node) {
		t.Error("node should contain itself")
	}
	other := Node(1, 0, 2, 8, 3)
	if node.BladeName().Contains(other) {
		t.Error("blade s7 should not contain node on s8")
	}
	if node.Contains(node.BladeName()) {
		t.Error("node should not contain its blade")
	}
	if Cabinet(0, 0).Contains(Node(1, 0, 0, 0, 0)) {
		t.Error("wrong cabinet containment")
	}
}

func TestSameBladeAndCabinet(t *testing.T) {
	a := Node(1, 0, 2, 7, 0)
	b := Node(1, 0, 2, 7, 3)
	c := Node(1, 0, 2, 8, 0)
	if !SameBlade(a, b) {
		t.Error("a,b share a blade")
	}
	if SameBlade(a, c) {
		t.Error("a,c do not share a blade")
	}
	if !SameCabinet(a, c) {
		t.Error("a,c share a cabinet")
	}
	if SameBlade(Cabinet(0, 0), a) {
		t.Error("cabinet has no blade")
	}
}

func TestSiblings(t *testing.T) {
	n := Node(0, 0, 1, 5, 2)
	sibs := n.Siblings()
	if len(sibs) != 3 {
		t.Fatalf("got %d siblings, want 3", len(sibs))
	}
	for _, s := range sibs {
		if !SameBlade(n, s) || s == n {
			t.Errorf("bad sibling %v", s)
		}
	}
	if Blade(0, 0, 0, 0).Siblings() != nil {
		t.Error("blade should have no node siblings")
	}
}

func TestNIDRoundTrip(t *testing.T) {
	const cols = 4
	seen := map[int]bool{}
	for row := 0; row < 2; row++ {
		for col := 0; col < cols; col++ {
			for ch := 0; ch < ChassisPerCabinet; ch++ {
				for s := 0; s < SlotsPerChassis; s++ {
					for nd := 0; nd < NodesPerBlade; nd++ {
						n := Node(col, row, ch, s, nd)
						nid := n.NID(cols)
						if nid < 0 {
							t.Fatalf("NID(%v) < 0", n)
						}
						if seen[nid] {
							t.Fatalf("duplicate nid %d for %v", nid, n)
						}
						seen[nid] = true
						if back := FromNID(nid, cols); back != n {
							t.Fatalf("FromNID(NID(%v)) = %v", n, back)
						}
					}
				}
			}
		}
	}
	// NIDs must be dense 0..count-1.
	for i := 0; i < len(seen); i++ {
		if !seen[i] {
			t.Fatalf("nid %d missing from dense enumeration", i)
		}
	}
}

func TestNIDInvalid(t *testing.T) {
	if Blade(0, 0, 0, 0).NID(4) != -1 {
		t.Error("blade NID should be -1")
	}
	if FromNID(-1, 4).IsValid() {
		t.Error("FromNID(-1) should be invalid")
	}
}

func TestNIDString(t *testing.T) {
	if got := NIDString(42); got != "nid00042" {
		t.Errorf("NIDString(42) = %q", got)
	}
	v, err := ParseNID("nid00042")
	if err != nil || v != 42 {
		t.Errorf("ParseNID = %d, %v", v, err)
	}
	if _, err := ParseNID("node42"); err == nil {
		t.Error("ParseNID should reject non-nid strings")
	}
	if _, err := ParseNID("nid-1"); err == nil {
		t.Error("ParseNID should reject negative")
	}
}

func TestCompare(t *testing.T) {
	a := Node(0, 0, 0, 0, 0)
	b := Node(0, 0, 0, 0, 1)
	if Compare(a, b) >= 0 {
		t.Error("a < b expected")
	}
	if Compare(b, a) <= 0 {
		t.Error("b > a expected")
	}
	if Compare(a, a) != 0 {
		t.Error("a == a expected")
	}
	if Compare(a.BladeName(), a) >= 0 {
		t.Error("blade sorts before its node")
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	n := Node(1, 0, 2, 7, 3)
	b, err := n.MarshalText()
	if err != nil || string(b) != "c1-0c2s7n3" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var back Name
	if err := back.UnmarshalText(b); err != nil || back != n {
		t.Fatalf("UnmarshalText = %v, %v", back, err)
	}
	// Invalid name marshals empty and unmarshals back to invalid.
	var zero Name
	b, _ = zero.MarshalText()
	if len(b) != 0 {
		t.Errorf("invalid name should marshal empty, got %q", b)
	}
	var z2 Name
	if err := z2.UnmarshalText(nil); err != nil || z2.IsValid() {
		t.Error("empty text should unmarshal to invalid")
	}
	if err := z2.UnmarshalText([]byte("garbage")); err == nil {
		t.Error("garbage should not unmarshal")
	}
}

// Property: parse inverts String for arbitrary valid coordinates.
func TestQuickParseInvertsString(t *testing.T) {
	f := func(col, row uint8, ch, slot, node uint8) bool {
		n := Node(int(col), int(row), int(ch)%ChassisPerCabinet,
			int(slot)%SlotsPerChassis, int(node)%NodesPerBlade)
		back, err := Parse(n.String())
		return err == nil && back == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NID is dense, order-preserving within a machine.
func TestQuickNIDBijective(t *testing.T) {
	f := func(raw uint16) bool {
		const cols = 3
		nid := int(raw) % (cols * 2 * NodesPerCabinet)
		n := FromNID(nid, cols)
		return n.IsValid() && n.NID(cols) == nid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNameIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(Name{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Name{}) = %d, want 8", got)
	}
}

// gridNames enumerates every level over coordinates at 0, at the
// geometry limits and at MaxCoord, plus the invalid Name.
func gridNames() []Name {
	out := []Name{{}}
	for _, col := range []int{0, 1, 4095, 4096, MaxCoord} {
		for _, row := range []int{0, 1, 4096, MaxCoord} {
			out = append(out, Cabinet(col, row))
			for _, ch := range []int{0, ChassisPerCabinet - 1} {
				out = append(out, Chassis(col, row, ch))
				for _, sl := range []int{0, SlotsPerChassis - 1} {
					out = append(out, Blade(col, row, ch, sl))
					for _, nd := range []int{0, NodesPerBlade - 1} {
						out = append(out, Node(col, row, ch, sl, nd))
					}
				}
			}
		}
	}
	return out
}

// TestHierarchyByMaskMatchesConstructors pins the packed word: the
// masked parents equal the constructor route, Compare equals the
// field-wise order, and Contains and SameCabinet equal their field-wise
// definitions.
func TestHierarchyByMaskMatchesConstructors(t *testing.T) {
	names := gridNames()
	for _, n := range names {
		if !n.IsValid() {
			if n.CabinetName().IsValid() || n.ChassisName().IsValid() || n.BladeName().IsValid() {
				t.Fatal("invalid name has a valid parent")
			}
			continue
		}
		col, row, ch, sl := n.Col(), n.Row(), n.ChassisIndex(), n.SlotIndex()
		if got, want := n.CabinetName(), Cabinet(col, row); got != want {
			t.Errorf("%v.CabinetName() = %v, want %v", n, got, want)
		}
		wantChassis, wantBlade := Name{}, Name{}
		if n.Level() >= LevelChassis {
			wantChassis = Chassis(col, row, ch)
		}
		if n.Level() >= LevelBlade {
			wantBlade = Blade(col, row, ch, sl)
		}
		if got := n.ChassisName(); got != wantChassis {
			t.Errorf("%v.ChassisName() = %v, want %v", n, got, wantChassis)
		}
		if got := n.BladeName(); got != wantBlade {
			t.Errorf("%v.BladeName() = %v, want %v", n, got, wantBlade)
		}
		if back, err := Parse(n.String()); err != nil || back != n {
			t.Errorf("Parse(%q) = %v, %v", n.String(), back, err)
		}
	}
	containsRef := func(a, b Name) bool {
		return a.IsValid() && b.IsValid() && a.Level() <= b.Level() &&
			a.Col() == b.Col() && a.Row() == b.Row() &&
			(a.Level() < LevelChassis || a.ChassisIndex() == b.ChassisIndex()) &&
			(a.Level() < LevelBlade || a.SlotIndex() == b.SlotIndex()) &&
			(a.Level() < LevelNode || a.NodeIndex() == b.NodeIndex())
	}
	for _, a := range names {
		for _, b := range names {
			if got, want := Compare(a, b), compareRef(a, b); got != want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
			if got, want := a.Contains(b), containsRef(a, b); got != want {
				t.Fatalf("%v.Contains(%v) = %v, want %v", a, b, got, want)
			}
			wantSame := a.IsValid() && b.IsValid() && a.Col() == b.Col() && a.Row() == b.Row()
			if got := SameCabinet(a, b); got != wantSame {
				t.Fatalf("SameCabinet(%v, %v) = %v, want %v", a, b, got, wantSame)
			}
		}
	}
}

// TestCoordinateBounds pins the bounds contract: constructors panic on a
// coordinate outside it, FromNID returns the invalid Name.
func TestCoordinateBounds(t *testing.T) {
	panics := []struct {
		name string
		f    func() Name
	}{
		{"negative column", func() Name { return Cabinet(-1, 0) }},
		{"column above MaxCoord", func() Name { return Cabinet(MaxCoord+1, 0) }},
		{"row above MaxCoord", func() Name { return Chassis(0, MaxCoord+1, 0) }},
		{"negative row", func() Name { return Node(0, -1, 0, 0, 0) }},
		{"chassis 3", func() Name { return Chassis(0, 0, ChassisPerCabinet) }},
		{"negative chassis", func() Name { return Blade(0, 0, -1, 0) }},
		{"slot 16", func() Name { return Blade(0, 0, 0, SlotsPerChassis) }},
		{"node 4", func() Name { return Node(0, 0, 0, 0, NodesPerBlade) }},
		{"negative node", func() Name { return Node(0, 0, 0, 0, -1) }},
	}
	for _, c := range panics {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor did not panic", c.name)
				}
			}()
			c.f()
		})
	}
	if n := Node(MaxCoord, MaxCoord, ChassisPerCabinet-1, SlotsPerChassis-1, NodesPerBlade-1); n.Col() != MaxCoord || n.Row() != MaxCoord {
		t.Errorf("largest node round-trips to %v", n)
	}

	lastRow := (MaxCoord+1)*NodesPerCabinet - 1 // one column: row == cabinet
	nids := []struct {
		name      string
		nid, cols int
		valid     bool
	}{
		{"last row", lastRow, 1, true},
		{"row past MaxCoord", lastRow + 1, 1, false},
		{"column past MaxCoord", (MaxCoord + 1) * NodesPerCabinet, MaxCoord + 2, false},
		{"largest int", math.MaxInt, 3, false},
		{"negative nid", -1, 4, false},
		{"no columns", 0, 0, false},
	}
	for _, c := range nids {
		if got := FromNID(c.nid, c.cols); got.IsValid() != c.valid {
			t.Errorf("%s: FromNID(%d, %d) = %v, want valid %v", c.name, c.nid, c.cols, got, c.valid)
		}
	}
	if got := FromNID(lastRow, 1); got != Node(0, MaxCoord, ChassisPerCabinet-1, SlotsPerChassis-1, NodesPerBlade-1) {
		t.Errorf("FromNID(last row) = %v", got)
	}
}
