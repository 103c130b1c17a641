package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/events"
)

func sampleLines(n int) []string {
	out := make([]string, n)
	base := time.Date(2015, 3, 2, 10, 0, 0, 0, time.UTC)
	for i := range out {
		out[i] = base.Add(time.Duration(i)*time.Second).Format(tsFormat) +
			" c0-0c0s1n2 kernel: <3> Machine Check Exception bank=4"
	}
	return out
}

func sampleRecords(n int) []events.Record {
	out := make([]events.Record, n)
	base := time.Date(2015, 3, 2, 10, 0, 0, 0, time.UTC)
	for i := range out {
		out[i] = events.Record{
			Time: base.Add(time.Duration(i) * time.Second), Stream: events.StreamConsole,
			Category: "mce", Severity: events.SevError, Msg: "Machine Check Exception",
		}
		out[i].SetField("bank", "4")
	}
	return out
}

func TestZeroConfigIsIdentity(t *testing.T) {
	in := New(Config{Seed: 1})
	lines := sampleLines(50)
	got := in.CorruptLines("console.log", lines)
	if !reflect.DeepEqual(got, lines) {
		t.Fatal("zero config modified lines")
	}
	if in.Report.Corruptions() != 0 || in.Report.Emitted != 50 {
		t.Fatalf("zero config reported corruption: %+v", in.Report)
	}
	recs := sampleRecords(20)
	got2 := New(Config{Seed: 1}).CorruptRecords(recs)
	if !reflect.DeepEqual(got2, recs) {
		t.Fatal("zero config modified records")
	}
}

func TestDeterministicAcrossRunsAndOrder(t *testing.T) {
	cfg := Config{Seed: 99, Drop: 0.1, Truncate: 0.1, Garble: 0.1,
		Duplicate: 0.1, Shuffle: 0.1, ClockSkew: 0.1, Interleave: 0.05}
	lines := sampleLines(200)

	a := New(cfg)
	outA1 := a.CorruptLines("console.log", lines)
	outA2 := a.CorruptLines("messages.log", lines)

	// Reverse processing order: per-stream output must be unchanged.
	b := New(cfg)
	outB2 := b.CorruptLines("messages.log", lines)
	outB1 := b.CorruptLines("console.log", lines)

	if !reflect.DeepEqual(outA1, outB1) || !reflect.DeepEqual(outA2, outB2) {
		t.Fatal("corruption depends on stream processing order")
	}
	if a.Report != b.Report {
		t.Fatalf("reports differ: %+v vs %+v", a.Report, b.Report)
	}
	if a.Report.Corruptions() == 0 {
		t.Fatal("expected some corruption at these intensities")
	}
}

func TestDropAccounting(t *testing.T) {
	in := New(Config{Seed: 7, Drop: 0.3})
	lines := sampleLines(500)
	out := in.CorruptLines("console.log", lines)
	if len(out)+in.Report.Dropped != len(lines) {
		t.Fatalf("emitted %d + dropped %d != %d", len(out), in.Report.Dropped, len(lines))
	}
	if in.Report.Dropped < 100 || in.Report.Dropped > 200 {
		t.Errorf("dropped %d of 500 at p=0.3, want ~150", in.Report.Dropped)
	}
	if in.Report.Emitted != len(out) {
		t.Errorf("Emitted %d != len(out) %d", in.Report.Emitted, len(out))
	}
}

func TestDuplicateAccounting(t *testing.T) {
	in := New(Config{Seed: 7, Duplicate: 0.2})
	lines := sampleLines(500)
	out := in.CorruptLines("console.log", lines)
	if len(out) != len(lines)+in.Report.Duplicated {
		t.Fatalf("emitted %d, want %d + %d dups", len(out), len(lines), in.Report.Duplicated)
	}
	if in.Report.Duplicated == 0 {
		t.Error("no duplicates at p=0.2")
	}
}

func TestTruncateProducesPrefixes(t *testing.T) {
	in := New(Config{Seed: 3, Truncate: 1})
	lines := sampleLines(20)
	out := in.CorruptLines("console.log", lines)
	if in.Report.Truncated != 20 {
		t.Fatalf("truncated %d, want all 20", in.Report.Truncated)
	}
	for i, l := range out {
		if !strings.HasPrefix(lines[i], l) || len(l) >= len(lines[i]) {
			t.Fatalf("line %d is not a proper prefix: %q", i, l)
		}
	}
}

func TestStreamLoss(t *testing.T) {
	in := New(Config{Seed: 11, StreamLoss: 1})
	out := in.CorruptLines("erd.log", sampleLines(40))
	if out != nil || in.Report.StreamsLost != 1 || in.Report.Dropped != 40 {
		t.Fatalf("stream loss: out=%d report=%+v", len(out), in.Report)
	}
}

func TestClockSkewRewritesTimestamps(t *testing.T) {
	in := New(Config{Seed: 5, ClockSkew: 1, MaxSkew: time.Minute})
	lines := sampleLines(30)
	out := in.CorruptLines("console.log", lines)
	if in.Report.Skewed != 30 {
		t.Fatalf("skewed %d, want 30", in.Report.Skewed)
	}
	moved := 0
	for i, l := range out {
		sp := strings.IndexByte(l, ' ')
		ts, err := time.Parse(tsFormat, l[:sp])
		if err != nil {
			t.Fatalf("skewed line %d has unparseable timestamp: %v", i, err)
		}
		orig, _ := time.Parse(tsFormat, lines[i][:strings.IndexByte(lines[i], ' ')])
		d := ts.Sub(orig)
		if d < -time.Minute || d > time.Minute {
			t.Fatalf("skew %v out of bounds", d)
		}
		if d != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no timestamp actually moved")
	}
	// Torque-format timestamps are recognised too.
	tline := "03/02/2015 10:15:30.000000;E;397.sdb;Action=job_end"
	if skewed, ok := skewLine(New(Config{Seed: 1}).rand("x"), tline, time.Minute); !ok {
		t.Error("torque timestamp not recognised")
	} else if !strings.Contains(skewed, ";E;397.sdb;") {
		t.Errorf("torque payload damaged: %q", skewed)
	}
}

func TestShuffleIsBounded(t *testing.T) {
	in := New(Config{Seed: 9, Shuffle: 0.5, ShuffleWindow: 4})
	lines := sampleLines(300)
	out := in.CorruptLines("console.log", lines)
	if in.Report.Shuffled == 0 {
		t.Fatal("no shuffling at p=0.5")
	}
	if len(out) != len(lines) {
		t.Fatal("shuffle changed line count")
	}
	// Every line survives, displaced by at most 2*window (two swaps can
	// compound), and the multiset is preserved.
	pos := map[string][]int{}
	for i, l := range lines {
		pos[l] = append(pos[l], i)
	}
	for j, l := range out {
		idxs := pos[l]
		if len(idxs) == 0 {
			t.Fatalf("shuffle invented line %q", l)
		}
		best := idxs[0]
		for _, i := range idxs {
			if absInt(i-j) < absInt(best-j) {
				best = i
			}
		}
		if absInt(best-j) > 8 {
			t.Fatalf("line displaced by %d > 2*window", absInt(best-j))
		}
	}
}

func TestInterleaveSplitsAcrossNeighbour(t *testing.T) {
	in := New(Config{Seed: 13, Interleave: 1})
	lines := []string{"aaaa bbbb", "cccc dddd", "eeee ffff", "gggg hhhh"}
	out := in.CorruptLines("console.log", lines)
	if in.Report.Interleaved == 0 {
		t.Fatal("no interleaving at p=1")
	}
	// Total bytes are conserved: nothing is lost, only re-framed.
	var inBytes, outBytes int
	for _, l := range lines {
		inBytes += len(l)
	}
	for _, l := range out {
		outBytes += len(l)
	}
	if inBytes != outBytes {
		t.Fatalf("interleave lost bytes: %d -> %d", inBytes, outBytes)
	}
}

func TestCorruptRecordsDoesNotMutateInput(t *testing.T) {
	recs := sampleRecords(100)
	recs[0].SetField("trace", "a|b")
	orig := make([]events.Record, len(recs))
	copy(orig, recs)
	in := New(Config{Seed: 21, Truncate: 1, Garble: 1})
	out := in.CorruptRecords(recs)
	for i := range recs {
		if recs[i].Msg != orig[i].Msg || recs[i].Category != orig[i].Category {
			t.Fatal("input records mutated")
		}
		if recs[i].Field("bank") != "4" && i != 0 {
			t.Fatal("input fields mutated")
		}
	}
	for i := range out {
		if out[i].Fields != nil {
			t.Fatalf("truncated record %d kept fields", i)
		}
	}
}

func TestCorruptAllDeterministicAndDropsLostStreams(t *testing.T) {
	files := map[string][]string{
		"console.log":  sampleLines(60),
		"messages.log": sampleLines(60),
		"erd.log":      sampleLines(60),
	}
	inA := New(Config{Seed: 17, StreamLoss: 0.5, Drop: 0.1})
	outA := inA.CorruptAll(files)
	inB := New(Config{Seed: 17, StreamLoss: 0.5, Drop: 0.1})
	outB := inB.CorruptAll(files)
	if !reflect.DeepEqual(outA, outB) || inA.Report != inB.Report {
		t.Fatal("CorruptAll not deterministic")
	}
	if inA.Report.StreamsLost > 0 && len(outA) == len(files) {
		t.Error("lost stream still present in output")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("mode=drop,intensity=0.2,seed=7")
	if err != nil || cfg.Drop != 0.2 || cfg.Seed != 7 || cfg.Truncate != 0 {
		t.Fatalf("mode spec: %+v err=%v", cfg, err)
	}
	cfg, err = ParseSpec("drop=0.1,trunc=0.05,skew=0.02,maxskew=5m,window=16,seed=3")
	if err != nil || cfg.Drop != 0.1 || cfg.Truncate != 0.05 ||
		cfg.ClockSkew != 0.02 || cfg.MaxSkew != 5*time.Minute || cfg.ShuffleWindow != 16 {
		t.Fatalf("kv spec: %+v err=%v", cfg, err)
	}
	if cfg, err = ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: %+v err=%v", cfg, err)
	}
	for _, bad := range []string{"mode=volcano,intensity=1", "drop=2", "intensity=0.5",
		"mode=drop", "nonsense", "window=0,drop=0.1", "drop=x",
		"iofault=0.1", "stall=0.1", "panic=0.1", "sticky=0.5", "stalltime=1s",
		"mode=iofault,intensity=0.2", "mode=stall,intensity=0.2", "mode=panic,intensity=0.2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

func TestForModeCoversAllModes(t *testing.T) {
	for _, m := range AllModes() {
		cfg := ForMode(m, 0.2, 1)
		if !cfg.Enabled() {
			t.Errorf("ForMode(%s) produced a disabled config", m)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
