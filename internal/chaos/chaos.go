// Package chaos is a seeded, deterministic log-stream fault injector.
// It reproduces the production logging discrepancies the paper lists as
// challenge #1 — noisy, incomplete and partially missing logs — as
// composable corruption operators over both rendered text log lines and
// structured events.Record streams:
//
//   - whole-line drops and whole-stream loss (rotated-away or unshipped
//     files),
//   - mid-line truncation (partial writes at rotation or crash),
//   - byte garbling (transport corruption, encoding damage),
//   - line duplication (at-least-once shippers),
//   - bounded out-of-order shuffling (multi-writer interleaving, racing
//     forwarders),
//   - clock skew (drifting node clocks),
//   - interleaved partial writes (two writers sharing one fd without
//     line buffering).
//
// Every injector is seeded through internal/rng and splits one child
// stream per log stream, so corruption is bit-identical for a given
// (seed, stream) pair regardless of the order streams are processed in.
// The injector accounts everything it does in a Report — the ground
// truth the robustness experiments score ingestion against.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpcfail/internal/events"
	"hpcfail/internal/rng"
)

// tsFormat mirrors loggen's ISO timestamp; torqueTSFormat its Torque
// accounting variant. The clock-skew operator rewrites whichever prefix
// it recognises.
const (
	tsFormat       = "2006-01-02T15:04:05.000000Z07:00"
	torqueTSFormat = "01/02/2006 15:04:05.000000"
)

// Mode names one corruption operator for single-axis sweeps.
type Mode string

// The sweepable corruption modes.
const (
	ModeDrop       Mode = "drop"
	ModeTruncate   Mode = "truncate"
	ModeGarble     Mode = "garble"
	ModeDuplicate  Mode = "duplicate"
	ModeShuffle    Mode = "shuffle"
	ModeStreamLoss Mode = "streamloss"
	ModeClockSkew  Mode = "clockskew"
	ModeInterleave Mode = "interleave"
)

// AllModes lists every corruption mode in sweep order.
func AllModes() []Mode {
	return []Mode{ModeDrop, ModeTruncate, ModeGarble, ModeDuplicate,
		ModeShuffle, ModeStreamLoss, ModeClockSkew, ModeInterleave}
}

// Config holds per-operator intensities. Each probability field is the
// per-line (per-stream for StreamLoss) chance in [0, 1] that the
// operator fires. The zero Config injects nothing.
type Config struct {
	// Seed drives all randomness; same Config, same corruption.
	Seed uint64
	// Drop removes whole lines (or records).
	Drop float64
	// Truncate cuts lines mid-way (records lose their message tail and
	// structured fields).
	Truncate float64
	// Garble overwrites a few bytes of the line (or message) with
	// arbitrary non-newline bytes.
	Garble float64
	// Duplicate emits the line (or record) twice.
	Duplicate float64
	// Shuffle displaces the line (or record) forward by up to
	// ShuffleWindow positions — bounded out-of-order delivery.
	Shuffle float64
	// ShuffleWindow bounds the displacement distance (default 8).
	ShuffleWindow int
	// StreamLoss drops an entire stream wholesale.
	StreamLoss float64
	// ClockSkew rewrites the line's (or record's) timestamp by a uniform
	// offset in [-MaxSkew, +MaxSkew].
	ClockSkew float64
	// MaxSkew bounds the skew magnitude (default 2 minutes).
	MaxSkew time.Duration
	// Interleave splits the line at a random point and interleaves the
	// two halves with the following line, as two unsynchronised writers
	// sharing a descriptor would.
	Interleave float64
}

// ForMode builds a single-operator Config at the given intensity — the
// chaos-matrix sweep axis.
func ForMode(m Mode, intensity float64, seed uint64) Config {
	cfg := Config{Seed: seed, ShuffleWindow: 8, MaxSkew: 2 * time.Minute}
	switch m {
	case ModeDrop:
		cfg.Drop = intensity
	case ModeTruncate:
		cfg.Truncate = intensity
	case ModeGarble:
		cfg.Garble = intensity
	case ModeDuplicate:
		cfg.Duplicate = intensity
	case ModeShuffle:
		cfg.Shuffle = intensity
	case ModeStreamLoss:
		cfg.StreamLoss = intensity
	case ModeClockSkew:
		cfg.ClockSkew = intensity
	case ModeInterleave:
		cfg.Interleave = intensity
	}
	return cfg
}

// Report is the injector's ground-truth account of what it corrupted.
type Report struct {
	// Lines is the number of input lines (or records) seen.
	Lines int
	// Emitted is the number of output lines (or records) produced.
	Emitted     int
	Dropped     int
	Truncated   int
	Garbled     int
	Duplicated  int
	Shuffled    int
	Skewed      int
	Interleaved int
	// StreamsLost counts whole streams removed by StreamLoss; their
	// lines are included in Dropped.
	StreamsLost int
}

// Add accumulates another report into r.
func (r *Report) Add(o Report) {
	r.Lines += o.Lines
	r.Emitted += o.Emitted
	r.Dropped += o.Dropped
	r.Truncated += o.Truncated
	r.Garbled += o.Garbled
	r.Duplicated += o.Duplicated
	r.Shuffled += o.Shuffled
	r.Skewed += o.Skewed
	r.Interleaved += o.Interleaved
	r.StreamsLost += o.StreamsLost
}

// Corruptions is the total count of corruption events applied.
func (r *Report) Corruptions() int {
	return r.Dropped + r.Truncated + r.Garbled + r.Duplicated +
		r.Shuffled + r.Skewed + r.Interleaved
}

// String renders a compact one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("chaos: %d/%d lines emitted (dropped %d, truncated %d, garbled %d, duplicated %d, shuffled %d, skewed %d, interleaved %d, streams lost %d)",
		r.Emitted, r.Lines, r.Dropped, r.Truncated, r.Garbled, r.Duplicated,
		r.Shuffled, r.Skewed, r.Interleaved, r.StreamsLost)
}

// Injector applies a Config to streams and accumulates the Report.
// It is not safe for concurrent use.
type Injector struct {
	cfg Config
	// Report accumulates ground truth across CorruptLines /
	// CorruptRecords calls.
	Report Report
}

// New builds an injector. Zero-valued window and skew fields take their
// defaults here.
func New(cfg Config) *Injector {
	if cfg.ShuffleWindow <= 0 {
		cfg.ShuffleWindow = 8
	}
	if cfg.MaxSkew <= 0 {
		cfg.MaxSkew = 2 * time.Minute
	}
	return &Injector{cfg: cfg}
}

// Config returns the injector's effective configuration.
func (in *Injector) Config() Config { return in.cfg }

// rand derives the deterministic per-stream generator: corruption of one
// stream never depends on how many draws another stream consumed.
func (in *Injector) rand(stream string) *rng.Rand {
	return rng.New(in.cfg.Seed).Split("chaos/" + stream)
}

// CorruptLines corrupts one stream's rendered text lines. The stream
// label keys the deterministic random stream (use the log file name).
func (in *Injector) CorruptLines(stream string, lines []string) []string {
	r := in.rand(stream)
	rep := Report{Lines: len(lines)}
	defer func() { in.Report.Add(rep) }()

	if r.Bool(in.cfg.StreamLoss) {
		rep.StreamsLost++
		rep.Dropped += len(lines)
		return nil
	}

	out := make([]string, 0, len(lines))
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if r.Bool(in.cfg.Drop) {
			rep.Dropped++
			continue
		}
		if in.cfg.Interleave > 0 && i+1 < len(lines) && r.Bool(in.cfg.Interleave) {
			// Two writers race on one descriptor: the first line's write
			// is split around the whole second line.
			cut := 1 + r.Intn(maxInt(1, len(l)-1))
			out = append(out, l[:cut]+lines[i+1], l[cut:])
			rep.Interleaved++
			i++ // the next line was consumed
			continue
		}
		if r.Bool(in.cfg.Truncate) && len(l) > 4 {
			l = l[:1+r.Intn(len(l)-1)]
			rep.Truncated++
		}
		if r.Bool(in.cfg.Garble) && len(l) > 0 {
			l = garble(r, l)
			rep.Garbled++
		}
		if r.Bool(in.cfg.ClockSkew) {
			if skewed, ok := skewLine(r, l, in.cfg.MaxSkew); ok {
				l = skewed
				rep.Skewed++
			}
		}
		out = append(out, l)
		if r.Bool(in.cfg.Duplicate) {
			out = append(out, l)
			rep.Duplicated++
		}
	}
	if perm, moved := shuffle(r, in.cfg.Shuffle, in.cfg.ShuffleWindow, len(out)); perm != nil {
		shuffled := make([]string, len(out))
		for dst, src := range perm {
			shuffled[dst] = out[src]
		}
		out = shuffled
		rep.Shuffled = moved
	}
	rep.Emitted = len(out)
	return out
}

// CorruptRecords corrupts a structured record stream in place of the
// text path — the shape the streaming Watcher consumes. Records are
// deep-enough copied that callers' slices are never mutated.
func (in *Injector) CorruptRecords(recs []events.Record) []events.Record {
	r := in.rand("records")
	rep := Report{Lines: len(recs)}
	defer func() { in.Report.Add(rep) }()

	if r.Bool(in.cfg.StreamLoss) {
		rep.StreamsLost++
		rep.Dropped += len(recs)
		return nil
	}

	out := make([]events.Record, 0, len(recs))
	for i := range recs {
		if r.Bool(in.cfg.Drop) {
			rep.Dropped++
			continue
		}
		rec := recs[i]
		if r.Bool(in.cfg.Truncate) {
			// A truncated record keeps its prefix (time, component,
			// category head) but loses the message tail and every
			// structured field — the trace above all.
			if len(rec.Msg) > 4 {
				rec.Msg = rec.Msg[:len(rec.Msg)/2]
			}
			rec.Fields = nil
			rep.Truncated++
		}
		if r.Bool(in.cfg.Garble) {
			rec.Msg = garble(r, rec.Msg)
			// Garbling hits the category token half the time — the
			// misread the pipeline must survive.
			if r.Bool(0.5) && rec.Category != "" {
				rec.Category = garble(r, rec.Category)
			}
			rep.Garbled++
		}
		if r.Bool(in.cfg.ClockSkew) {
			rec.Time = rec.Time.Add(skewOffset(r, in.cfg.MaxSkew))
			rep.Skewed++
		}
		out = append(out, rec)
		if r.Bool(in.cfg.Duplicate) {
			out = append(out, rec)
			rep.Duplicated++
		}
	}
	if perm, moved := shuffle(r, in.cfg.Shuffle, in.cfg.ShuffleWindow, len(out)); perm != nil {
		shuffled := make([]events.Record, len(out))
		for dst, src := range perm {
			shuffled[dst] = out[src]
		}
		out = shuffled
		rep.Shuffled = moved
	}
	rep.Emitted = len(out)
	return out
}

// shuffle computes a bounded out-of-order permutation: each position
// fires with probability p and is pushed forward by a random offset up
// to window; a stable sort on the displaced keys then bounds every
// element's net movement by the window. Returns perm (output index ->
// input index; nil when nothing moved) and the number of displaced
// elements.
func shuffle(r *rng.Rand, p float64, window, n int) (perm []int, moved int) {
	if p <= 0 || n < 2 {
		return nil, 0
	}
	keys := make([]int, n)
	fired := false
	for i := range keys {
		keys[i] = i
		if r.Bool(p) {
			keys[i] += 1 + r.Intn(window)
			fired = true
		}
	}
	if !fired {
		return nil, 0
	}
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	for dst, src := range perm {
		if dst != src {
			moved++
		}
	}
	if moved == 0 {
		return nil, 0
	}
	return perm, moved
}

// garble overwrites 1–4 bytes with arbitrary non-newline bytes.
func garble(r *rng.Rand, s string) string {
	if len(s) == 0 {
		return s
	}
	b := []byte(s)
	for k := 1 + r.Intn(4); k > 0; k-- {
		pos := r.Intn(len(b))
		c := byte(1 + r.Intn(255))
		if c == '\n' {
			c = '?'
		}
		b[pos] = c
	}
	return string(b)
}

// skewOffset draws a uniform offset in [-max, +max].
func skewOffset(r *rng.Rand, max time.Duration) time.Duration {
	return time.Duration(r.Int63n(int64(2*max)+1)) - max
}

// skewLine rewrites a recognised timestamp prefix (ISO or Torque) by a
// random offset. Lines with no recognisable timestamp are left alone.
func skewLine(r *rng.Rand, line string, max time.Duration) (string, bool) {
	if sp := strings.IndexByte(line, ' '); sp > 0 {
		if ts, err := time.Parse(tsFormat, line[:sp]); err == nil {
			return ts.Add(skewOffset(r, max)).UTC().Format(tsFormat) + line[sp:], true
		}
	}
	if semi := strings.IndexByte(line, ';'); semi > 0 {
		if ts, err := time.Parse(torqueTSFormat, line[:semi]); err == nil {
			return ts.Add(skewOffset(r, max)).Format(torqueTSFormat) + line[semi:], true
		}
	}
	return line, false
}

// CorruptAll corrupts a per-file line map (as produced by
// loggen.RenderAll), visiting files in sorted-name order so the overall
// Report is deterministic. Streams removed by StreamLoss are deleted
// from the result.
func (in *Injector) CorruptAll(files map[string][]string) map[string][]string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string][]string, len(files))
	for _, name := range names {
		lost := in.Report.StreamsLost
		lines := in.CorruptLines(name, files[name])
		if in.Report.StreamsLost > lost {
			continue
		}
		out[name] = lines
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ParseSpec parses a -chaos flag value. Two shapes are accepted:
//
//	mode=<drop|truncate|garble|duplicate|shuffle|streamloss|clockskew|interleave>,intensity=0.2[,seed=7]
//	drop=0.1,truncate=0.05,garble=0.02,duplicate=0.01,shuffle=0.1,window=8,streamloss=0,clockskew=0.05,maxskew=2m,interleave=0.02,seed=7
//
// An empty spec returns the zero Config (inject nothing).
func ParseSpec(spec string) (Config, error) {
	cfg := Config{ShuffleWindow: 8, MaxSkew: 2 * time.Minute}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	var mode Mode
	intensity := -1.0
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		eq := strings.IndexByte(tok, '=')
		if eq <= 0 {
			return cfg, fmt.Errorf("chaos: bad token %q (want key=value)", tok)
		}
		key, val := tok[:eq], tok[eq+1:]
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		case "mode":
			mode = Mode(val)
			if !validMode(mode) {
				err = fmt.Errorf("unknown mode %q", val)
			}
		case "intensity":
			intensity, err = parseProb(val)
		case "drop":
			cfg.Drop, err = parseProb(val)
		case "truncate", "trunc":
			cfg.Truncate, err = parseProb(val)
		case "garble":
			cfg.Garble, err = parseProb(val)
		case "duplicate", "dup":
			cfg.Duplicate, err = parseProb(val)
		case "shuffle":
			cfg.Shuffle, err = parseProb(val)
		case "window":
			cfg.ShuffleWindow, err = strconv.Atoi(val)
			if err == nil && cfg.ShuffleWindow <= 0 {
				err = fmt.Errorf("window must be positive")
			}
		case "streamloss", "loss":
			cfg.StreamLoss, err = parseProb(val)
		case "clockskew", "skew":
			cfg.ClockSkew, err = parseProb(val)
		case "maxskew":
			cfg.MaxSkew, err = time.ParseDuration(val)
		case "interleave":
			cfg.Interleave, err = parseProb(val)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: %s: %v", tok, err)
		}
	}
	if mode != "" {
		if intensity < 0 {
			return cfg, fmt.Errorf("chaos: mode=%s needs intensity=", mode)
		}
		modeCfg := ForMode(mode, intensity, cfg.Seed)
		modeCfg.ShuffleWindow = cfg.ShuffleWindow
		modeCfg.MaxSkew = cfg.MaxSkew
		return modeCfg, nil
	}
	if intensity >= 0 {
		return cfg, fmt.Errorf("chaos: intensity= needs mode=")
	}
	return cfg, nil
}

func validMode(m Mode) bool {
	for _, v := range AllModes() {
		if m == v {
			return true
		}
	}
	return false
}

func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("probability %v out of [0,1]", v)
	}
	return v, nil
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Truncate > 0 || c.Garble > 0 || c.Duplicate > 0 ||
		c.Shuffle > 0 || c.StreamLoss > 0 || c.ClockSkew > 0 || c.Interleave > 0
}
