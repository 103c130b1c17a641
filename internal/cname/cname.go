// Package cname implements the Cray component-name ("cname") algebra used
// by the Hardware Supervisory System to address physical components.
//
// A cname identifies a position in the physical hierarchy:
//
//	c X - Y            cabinet in column X, row Y
//	c X - Y c C        chassis C (0-2) within the cabinet
//	c X - Y c C s S    slot/blade S (0-15) within the chassis
//	c X - Y c C s S n N node N (0-3) on the blade
//
// For example c1-0c2s7n3 is node 3 on blade 7 of chassis 2 in the cabinet
// at column 1, row 0. The paper's correlation methodology (Fig 2) walks
// this hierarchy — node → blade → cabinet — to join node-internal failures
// with blade-controller and cabinet-controller health events, so the
// containment relations here underpin the whole analysis pipeline.
package cname

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Level identifies the granularity of a component name.
type Level int

const (
	// LevelInvalid marks the zero Name.
	LevelInvalid Level = iota
	// LevelCabinet addresses a whole cabinet (cX-Y).
	LevelCabinet
	// LevelChassis addresses a chassis within a cabinet (cX-YcC).
	LevelChassis
	// LevelBlade addresses a blade/slot within a chassis (cX-YcCsS).
	LevelBlade
	// LevelNode addresses a compute node on a blade (cX-YcCsSnN).
	LevelNode
)

// String returns the lower-case level name.
func (l Level) String() string {
	switch l {
	case LevelCabinet:
		return "cabinet"
	case LevelChassis:
		return "chassis"
	case LevelBlade:
		return "blade"
	case LevelNode:
		return "node"
	default:
		return "invalid"
	}
}

// Standard geometry of a Cray XC/XE cabinet. These are constants of the
// hardware platform, not tunables: 3 chassis per cabinet, 16 blade slots
// per chassis, 4 nodes per blade.
const (
	ChassisPerCabinet = 3
	SlotsPerChassis   = 16
	NodesPerBlade     = 4
	NodesPerChassis   = SlotsPerChassis * NodesPerBlade
	NodesPerCabinet   = ChassisPerCabinet * NodesPerChassis
)

// MaxCoord is the largest cabinet column or row a Name can hold.
const MaxCoord = 1<<20 - 1

// Name is a parsed component name. The zero value is invalid.
//
// A Name is one word. From the low bits it holds the level (3 bits),
// node, slot and chassis (6 bits each), column and row (20 bits each).
// Row is the most significant field and level the least, so the integer
// order of two words is Compare's order, and the enclosing blade,
// chassis or cabinet is the same word with its finer fields cleared.
//
// Coordinates are bounded: column and row lie in [0, MaxCoord], chassis,
// slot and node in the platform geometry (ChassisPerCabinet,
// SlotsPerChassis, NodesPerBlade). Parse rejects a name outside these
// bounds; the constructors panic, since only a bug can produce one.
type Name struct{ w uint64 }

// Field offsets in the word; column and row are 20 bits wide, the
// others fit in their 6.
const (
	nodeShift    = 3
	slotShift    = 9
	chassisShift = 15
	colShift     = 21
	rowShift     = 41
	levelMask    = 1<<nodeShift - 1
	subMask      = 1<<6 - 1 // chassis, slot, node
)

// keepShift[l] is the offset of the finest field a level-l name uses:
// masking off the bits below it and setting l yields the enclosing
// component at that level.
var keepShift = [...]uint{LevelCabinet: colShift, LevelChassis: chassisShift, LevelBlade: slotShift, LevelNode: nodeShift}

func pack(level Level, col, row, chassis, slot, node int) Name {
	if uint(col) > MaxCoord || uint(row) > MaxCoord || uint(chassis) >= ChassisPerCabinet ||
		uint(slot) >= SlotsPerChassis || uint(node) >= NodesPerBlade {
		panic(fmt.Sprintf("cname: %v coordinate out of range (col %d, row %d, chassis %d, slot %d, node %d)",
			level, col, row, chassis, slot, node))
	}
	return Name{uint64(level) | uint64(node)<<nodeShift | uint64(slot)<<slotShift |
		uint64(chassis)<<chassisShift | uint64(col)<<colShift | uint64(row)<<rowShift}
}

// Cabinet constructs a cabinet-level name.
func Cabinet(col, row int) Name { return pack(LevelCabinet, col, row, 0, 0, 0) }

// Chassis constructs a chassis-level name.
func Chassis(col, row, chassis int) Name { return pack(LevelChassis, col, row, chassis, 0, 0) }

// Blade constructs a blade-level name.
func Blade(col, row, chassis, slot int) Name { return pack(LevelBlade, col, row, chassis, slot, 0) }

// Node constructs a node-level name.
func Node(col, row, chassis, slot, node int) Name {
	return pack(LevelNode, col, row, chassis, slot, node)
}

// Level reports the granularity of the name.
func (n Name) Level() Level { return Level(n.w & levelMask) }

// IsValid reports whether the name addresses a component.
func (n Name) IsValid() bool { return n.w != 0 }

// Col returns the cabinet column.
func (n Name) Col() int { return int(n.w >> colShift & MaxCoord) }

// Row returns the cabinet row.
func (n Name) Row() int { return int(n.w >> rowShift) }

// ChassisIndex returns the chassis number within the cabinet. Valid for
// chassis-level names and finer.
func (n Name) ChassisIndex() int { return int(n.w >> chassisShift & subMask) }

// SlotIndex returns the blade slot within the chassis. Valid for
// blade-level names and finer.
func (n Name) SlotIndex() int { return int(n.w >> slotShift & subMask) }

// NodeIndex returns the node number on the blade. Valid for node-level
// names only.
func (n Name) NodeIndex() int { return int(n.w >> nodeShift & subMask) }

// Key returns the name's word. Two Names are equal exactly when their
// Keys are, and Keys order as Compare does, so hot map indexes and sorts
// can use the word directly.
func (n Name) Key() uint64 { return n.w }

// up returns the enclosing component at level l, which must not be finer
// than n's level.
func (n Name) up(l Level) Name {
	return Name{n.w&^(1<<keepShift[l]-1) | uint64(l)}
}

// onBlade returns node i, in [0, NodesPerBlade), on the blade of a
// blade- or node-level name.
func (n Name) onBlade(i int) Name {
	return Name{n.w&^(1<<slotShift-1) | uint64(LevelNode) | uint64(i)<<nodeShift}
}

// appendName appends the canonical cname form to buf. The rendering
// core shared by String and the node-list compressor; strconv appends
// keep it off the fmt slow path (Name.String is hot inside log
// rendering and scheduler node-list output).
func appendName(buf []byte, n Name) []byte {
	buf = append(buf, 'c')
	buf = strconv.AppendInt(buf, int64(n.Col()), 10)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, int64(n.Row()), 10)
	level := n.Level()
	if level >= LevelChassis {
		buf = append(buf, 'c')
		buf = strconv.AppendInt(buf, int64(n.ChassisIndex()), 10)
	}
	if level >= LevelBlade {
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(n.SlotIndex()), 10)
	}
	if level >= LevelNode {
		buf = append(buf, 'n')
		buf = strconv.AppendInt(buf, int64(n.NodeIndex()), 10)
	}
	return buf
}

// String renders the canonical cname form.
func (n Name) String() string {
	if !n.IsValid() {
		return "<invalid cname>"
	}
	var buf [24]byte
	return string(appendName(buf[:0], n))
}

// CabinetName returns the enclosing cabinet.
func (n Name) CabinetName() Name {
	if !n.IsValid() {
		return Name{}
	}
	return n.up(LevelCabinet)
}

// ChassisName returns the enclosing chassis, or an invalid Name for
// cabinet-level input.
func (n Name) ChassisName() Name {
	if n.Level() < LevelChassis {
		return Name{}
	}
	return n.up(LevelChassis)
}

// BladeName returns the enclosing blade, or an invalid Name for input
// coarser than a blade.
func (n Name) BladeName() Name {
	if n.Level() < LevelBlade {
		return Name{}
	}
	return n.up(LevelBlade)
}

// Contains reports whether n encloses (or equals) other in the physical
// hierarchy. A cabinet contains its chassis, blades and nodes; a blade
// contains its nodes; every component contains itself.
func (n Name) Contains(other Name) bool {
	return n.IsValid() && n.Level() <= other.Level() && other.up(n.Level()) == n
}

// SameBlade reports whether two node- or blade-level names share a blade.
// The paper's spatial-correlation step asks exactly this question: did
// the other nodes of the failed node's blade show health faults?
func SameBlade(a, b Name) bool {
	ab, bb := a.BladeName(), b.BladeName()
	return ab.IsValid() && ab == bb
}

// SameCabinet reports whether two names share a cabinet.
func SameCabinet(a, b Name) bool {
	return a.IsValid() && b.IsValid() && a.w>>colShift == b.w>>colShift
}

// Siblings returns the other nodes on the same blade as the given
// node-level name. Returns nil for non-node input.
func (n Name) Siblings() []Name {
	if n.Level() != LevelNode {
		return nil
	}
	out := make([]Name, 0, NodesPerBlade-1)
	for i := 0; i < NodesPerBlade; i++ {
		if i != n.NodeIndex() {
			out = append(out, n.onBlade(i))
		}
	}
	return out
}

// NID returns a dense non-negative node identifier for a node-level name
// within a machine laid out as rows × cols cabinets. Cray systems expose
// a similar "nid" integer (e.g. nid00042) alongside the cname. The
// mapping enumerates cabinets row-major, then chassis, slot, node.
func (n Name) NID(cols int) int {
	if n.Level() != LevelNode || cols <= 0 {
		return -1
	}
	cab := n.Row()*cols + n.Col()
	return ((cab*ChassisPerCabinet+n.ChassisIndex())*SlotsPerChassis+n.SlotIndex())*NodesPerBlade + n.NodeIndex()
}

// FromNID inverts NID for a machine with the given cabinet column count.
// A nid whose cabinet falls outside MaxCoord yields the invalid Name.
func FromNID(nid, cols int) Name {
	if nid < 0 || cols <= 0 {
		return Name{}
	}
	node := nid % NodesPerBlade
	nid /= NodesPerBlade
	slot := nid % SlotsPerChassis
	nid /= SlotsPerChassis
	chassis := nid % ChassisPerCabinet
	cab := nid / ChassisPerCabinet
	col, row := cab%cols, cab/cols
	if col > MaxCoord || row > MaxCoord {
		return Name{}
	}
	return Node(col, row, chassis, slot, node)
}

// NIDString renders the Cray-style zero-padded node id, e.g. "nid00042".
func NIDString(nid int) string {
	return fmt.Sprintf("nid%05d", nid)
}

// ParseNID parses a "nidNNNNN" string.
func ParseNID(s string) (int, error) {
	if !strings.HasPrefix(s, "nid") {
		return 0, fmt.Errorf("cname: %q is not a nid", s)
	}
	v, err := strconv.Atoi(strings.TrimPrefix(s, "nid"))
	if err != nil || v < 0 {
		return 0, fmt.Errorf("cname: bad nid %q", s)
	}
	return v, nil
}

// Parse parses a cname of any level. It accepts the canonical forms
// produced by String: cX-Y, cX-YcC, cX-YcCsS, cX-YcCsSnN, with X and Y
// at most MaxCoord and C, S, N within the platform geometry.
func Parse(s string) (Name, error) {
	orig := s
	fail := func() (Name, error) {
		return Name{}, fmt.Errorf("cname: cannot parse %q", orig)
	}
	if len(s) < 4 || s[0] != 'c' {
		return fail()
	}
	s = s[1:]
	dash := strings.IndexByte(s, '-')
	if dash <= 0 {
		return fail()
	}
	col, err := strconv.Atoi(s[:dash])
	if err != nil || col < 0 || col > MaxCoord {
		return fail()
	}
	s = s[dash+1:]
	// Row digits run until the next letter or end of string.
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return fail()
	}
	row, err := strconv.Atoi(s[:i])
	if err != nil || row > MaxCoord {
		return fail()
	}
	s = s[i:]
	level := LevelCabinet
	var sub [3]int // chassis, slot, node
	for k, part := range [...]struct {
		tag   byte
		bound int
	}{{'c', ChassisPerCabinet}, {'s', SlotsPerChassis}, {'n', NodesPerBlade}} {
		if len(s) == 0 {
			break
		}
		if s[0] != part.tag {
			return fail()
		}
		s = s[1:]
		j := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == 0 {
			return fail()
		}
		v, err := strconv.Atoi(s[:j])
		if err != nil || v >= part.bound {
			return fail()
		}
		sub[k] = v
		level = LevelChassis + Level(k)
		s = s[j:]
	}
	if len(s) != 0 {
		return fail()
	}
	return pack(level, col, row, sub[0], sub[1], sub[2]), nil
}

// MustParse is Parse that panics on error; for constants in tests and
// examples.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// MarshalText implements encoding.TextMarshaler (JSON object keys and
// values render as the canonical cname).
func (n Name) MarshalText() ([]byte, error) {
	if !n.IsValid() {
		return []byte(""), nil
	}
	return []byte(n.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler; empty text yields
// the invalid zero Name.
func (n *Name) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*n = Name{}
		return nil
	}
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*n = parsed
	return nil
}

// Compare orders names hierarchically (row, col, chassis, slot, node,
// level). Suitable for sorting event listings into physical order.
func Compare(a, b Name) int { return cmp.Compare(a.w, b.w) }
