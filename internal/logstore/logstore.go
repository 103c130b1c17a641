// Package logstore provides the indexed event store the diagnosis
// pipeline queries: time-ordered storage with per-node, per-blade,
// per-cabinet, per-category and per-job indexes, windowed range queries,
// and a loader that ingests a directory of raw log files through the
// parser.
//
// The paper's correlation methodology is window-joins keyed by physical
// containment ("inspect the logs around the failure time" for the failed
// node's blade and cabinet); BladeWindow and CabinetWindow are exactly
// those queries.
package logstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hpcfail/internal/chaos"
	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/topology"
)

// Store is an immutable, time-sorted event collection with secondary
// indexes. Build one with New; the zero value is an empty store.
//
// Every record is held once, in the time-ordered log. A secondary index
// maps its key to the ascending positions of the key's records in that
// log: 4 bytes an entry, one []uint32 slab per family with every key's
// positions adjacent. Ascending positions are time-ascending records, so
// a window query is a binary search over a position list and comes back
// as a Span — a view, zero copies and zero allocations per query.
type Store struct {
	recs []events.Record

	byNode     posIndex[cname.Name]
	byBlade    posIndex[cname.Name]
	byCabinet  posIndex[cname.Name]
	byCategory posIndex[string]
	byJob      posIndex[int64]
}

// Span is the answer to an index query: the records of one key, or a
// time window of them, time-ascending. It is a view into the Store that
// answered — valid for as long as that Store is, whatever a Live does
// afterwards — and the zero value is an empty span.
type Span struct {
	recs []events.Record // the answering store's log
	pos  []uint32        // ascending positions into recs
}

// Len returns the number of records in the span.
func (sp Span) Len() int { return len(sp.pos) }

// At returns record i of the span. It points into the store's log:
// callers must not modify it.
func (sp Span) At(i int) *events.Record { return &sp.recs[sp.pos[i]] }

// Window narrows the span to records with Time in [from, to).
func (sp Span) Window(from, to time.Time) Span {
	lo := sp.searchTime(0, from)
	return Span{recs: sp.recs, pos: sp.pos[lo:sp.searchTime(lo, to)]}
}

// searchTime returns the first index at or after lo whose record has
// Time >= t. Hand-rolled like the log's searchTime, for the same reason.
func (sp Span) searchTime(lo int, t time.Time) int {
	hi := len(sp.pos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp.recs[sp.pos[mid]].Time.Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Records copies the span out. It allocates Len records: for tests,
// oracles and cold paths, never for the diagnosis path.
func (sp Span) Records() []events.Record {
	out := make([]events.Record, len(sp.pos))
	for i, p := range sp.pos {
		out[i] = sp.recs[p]
	}
	return out
}

// checkPositions panics when a log of n records has positions a uint32
// cannot hold; an index built past that would silently wrap.
func checkPositions(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("logstore: %d records exceed the 2^32 positions an index can address", n))
	}
}

// indexShards is how many maps one index family is split into, by key
// hash. A batch-built Store never notices the split. A Live does: the
// Stores it stamps out share its shard maps, and the next Apply clones
// only the shards it writes to — a snapshot costs the shard table, not
// the key count (see Live).
const indexShards = 256

// posIndex is one secondary-index family: key → ascending positions.
// The zero value is an empty index.
type posIndex[K comparable] struct {
	hash   func(K) uint32
	shards []map[K][]uint32 // nil, or indexShards maps (nil = empty)
}

func newPosIndex[K comparable](hash func(K) uint32) posIndex[K] {
	return posIndex[K]{hash: hash, shards: make([]map[K][]uint32, indexShards)}
}

// put adds a key while the index is being built; shards are sized to
// an even share of sizeHint keys.
func (x *posIndex[K]) put(k K, pos []uint32, sizeHint int) {
	i := x.hash(k) % indexShards
	m := x.shards[i]
	if m == nil {
		m = make(map[K][]uint32, sizeHint/indexShards+1)
		x.shards[i] = m
	}
	m[k] = pos
}

// get returns the key's positions.
func (x *posIndex[K]) get(k K) []uint32 {
	if x.shards == nil {
		return nil
	}
	return x.shards[x.hash(k)%indexShards][k]
}

// Shard hashes: any function of the key will do, as long as every bit
// of the key reaches the low bits that pick the shard.

func hashName(n cname.Name) uint32 { return hashInt64(int64(n.Key())) }

func hashInt64(v int64) uint32 { // splitmix64 finalizer
	x := uint64(v)
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return uint32(x ^ x>>31)
}

func hashString(s string) uint32 { // FNV-1a
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// New builds a store over the records (copied and sorted by time). The
// order is events.SortByTime's: the input is cut into its ascending
// runs — a directory load holds one per stream file — and the runs are
// merged straight into the copy, ties going to the earlier run.
func New(recs []events.Record) *Store {
	cp := make([]events.Record, len(recs))
	mergeRuns(cp, recs)
	return newFromSorted(cp)
}

// NewOwned builds a store over records the caller hands off: the slice
// is adopted and sorted in place rather than copied, so the caller must
// not modify it afterwards. For generator output — already time-sorted
// and immediately discarded — this skips a full-corpus copy; callers
// that keep using their slice should call New instead.
func NewOwned(recs []events.Record) *Store {
	events.SortByTime(recs)
	return newFromSorted(recs)
}

// buildIndex partitions the positions of time-sorted records by key: one
// slab per index family, every key's positions adjacent and ascending,
// each list three-index sliced so its capacity ends at the list boundary
// (a Live adopting the index then grows a list into a fresh array, never
// into the next key's). key reports a record's key for the family
// (ok=false skips the record).
func buildIndex[K comparable](recs []events.Record, hash func(K) uint32, key func(*events.Record) (K, bool)) posIndex[K] {
	counts := make(map[K]int)
	total := 0
	for i := range recs {
		if k, ok := key(&recs[i]); ok {
			counts[k]++
			total++
		}
	}
	slab := make([]uint32, total)
	cursors := make(map[K]int, len(counts))
	off := 0
	for k, c := range counts {
		cursors[k] = off
		off += c
	}
	for i := range recs {
		if k, ok := key(&recs[i]); ok {
			j := cursors[k]
			slab[j] = uint32(i)
			cursors[k] = j + 1
		}
	}
	idx := newPosIndex(hash)
	for k, c := range counts {
		end := cursors[k]
		idx.put(k, slab[end-c:end:end], len(counts))
	}
	return idx
}

// posAcc accumulates one cname-keyed index family, keyed by the name's
// word.
type posAcc struct {
	idx   map[uint64]int32
	slots []posSlot
	total int
}

type posSlot struct {
	name  cname.Name
	count int
	cur   int
}

// count tallies one occurrence of k.
func (a *posAcc) count(k cname.Name) {
	si, seen := a.idx[k.Key()]
	if !seen {
		si = int32(len(a.slots))
		a.slots = append(a.slots, posSlot{name: k})
		a.idx[k.Key()] = si
	}
	a.slots[si].count++
	a.total++
}

// layout allocates the family slab and assigns per-key offsets.
func (a *posAcc) layout() []uint32 {
	off := 0
	for i := range a.slots {
		a.slots[i].cur = off
		off += a.slots[i].count
	}
	return make([]uint32, a.total)
}

// fill places one position into its key's region of the slab.
func (a *posAcc) fill(slab []uint32, k cname.Name, pos uint32) {
	si := a.idx[k.Key()]
	c := a.slots[si].cur
	slab[c] = pos
	a.slots[si].cur = c + 1
}

// index carves the filled slab into capped per-key lists.
func (a *posAcc) index(slab []uint32) posIndex[cname.Name] {
	out := newPosIndex(hashName)
	for _, s := range a.slots {
		out.put(s.name, slab[s.cur-s.count:s.cur:s.cur], len(a.slots))
	}
	return out
}

func nodeKey(r *events.Record) (cname.Name, bool) {
	return r.Component, r.Component.IsValid() && r.Component.Level() == cname.LevelNode
}

func bladeKey(r *events.Record) (cname.Name, bool) {
	if !r.Component.IsValid() {
		return cname.Name{}, false
	}
	b := r.Component.BladeName()
	return b, b.IsValid()
}

func cabinetKey(r *events.Record) (cname.Name, bool) {
	return r.Component.CabinetName(), r.Component.IsValid()
}

func categoryKey(r *events.Record) (string, bool) { return r.Category, true }

func jobKey(r *events.Record) (int64, bool) { return r.JobID, r.JobID != 0 }

// buildComponentIndexes builds the node, blade, and cabinet families in
// one pair of passes: all three keys derive from r.Component, so a
// single traversal computes them together instead of six family scans.
func buildComponentIndexes(recs []events.Record) (byNode, byBlade, byCabinet posIndex[cname.Name]) {
	nodeAcc := posAcc{idx: make(map[uint64]int32)}
	bladeAcc := posAcc{idx: make(map[uint64]int32)}
	cabAcc := posAcc{idx: make(map[uint64]int32)}
	for i := range recs {
		c := recs[i].Component
		if !c.IsValid() {
			continue
		}
		if c.Level() == cname.LevelNode {
			nodeAcc.count(c)
		}
		if b := c.BladeName(); b.IsValid() {
			bladeAcc.count(b)
		}
		cabAcc.count(c.CabinetName())
	}
	nodeSlab, bladeSlab, cabSlab := nodeAcc.layout(), bladeAcc.layout(), cabAcc.layout()
	for i := range recs {
		c := recs[i].Component
		if !c.IsValid() {
			continue
		}
		if c.Level() == cname.LevelNode {
			nodeAcc.fill(nodeSlab, c, uint32(i))
		}
		if b := c.BladeName(); b.IsValid() {
			bladeAcc.fill(bladeSlab, b, uint32(i))
		}
		cabAcc.fill(cabSlab, c.CabinetName(), uint32(i))
	}
	return nodeAcc.index(nodeSlab), bladeAcc.index(bladeSlab), cabAcc.index(cabSlab)
}

// newFromSorted builds the secondary indexes over records that are
// already time-sorted. The slice is adopted, not copied — callers hand
// over ownership.
func newFromSorted(recs []events.Record) *Store {
	checkPositions(len(recs))
	byNode, byBlade, byCabinet := buildComponentIndexes(recs)
	return &Store{
		recs:       recs,
		byNode:     byNode,
		byBlade:    byBlade,
		byCabinet:  byCabinet,
		byCategory: buildIndex(recs, hashString, categoryKey),
		byJob:      buildIndex(recs, hashInt64, jobKey),
	}
}

// Len returns the record count.
func (s *Store) Len() int { return len(s.recs) }

// All returns the sorted records. Shared slice — callers must not
// modify.
func (s *Store) All() []events.Record { return s.recs }

// At returns record i.
func (s *Store) At(i int) events.Record { return s.recs[i] }

// searchTime returns the index of the first record in the time-sorted
// log with Time >= t. Hand-rolled (rather than sort.Search) so window
// queries are provably allocation-free — no closure, no interface.
func searchTime(recs []events.Record, t time.Time) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].Time.Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Window returns all records with Time in [from, to): a subslice of the
// log — shared storage, zero allocations; callers must not modify it.
func (s *Store) Window(from, to time.Time) []events.Record {
	lo := searchTime(s.recs, from)
	hi := lo + searchTime(s.recs[lo:], to)
	return s.recs[lo:hi:hi]
}

// NodeWindow returns the node's records in [from, to). Only node-level
// components match; blade/cabinet records do not.
func (s *Store) NodeWindow(node cname.Name, from, to time.Time) Span {
	return Span{s.recs, s.byNode.get(node)}.Window(from, to)
}

// BladeWindow returns records of the blade and everything on it
// (including its nodes) in [from, to).
func (s *Store) BladeWindow(blade cname.Name, from, to time.Time) Span {
	return Span{s.recs, s.byBlade.get(blade)}.Window(from, to)
}

// CabinetWindow returns records of the cabinet and everything in it in
// [from, to).
func (s *Store) CabinetWindow(cab cname.Name, from, to time.Time) Span {
	return Span{s.recs, s.byCabinet.get(cab)}.Window(from, to)
}

// Category returns all records with the given category, time-ascending.
func (s *Store) Category(cat string) Span {
	return Span{s.recs, s.byCategory.get(cat)}
}

// CategoryWindow returns the category's records in [from, to).
func (s *Store) CategoryWindow(cat string, from, to time.Time) Span {
	return s.Category(cat).Window(from, to)
}

// Job returns all records tagged with the job id.
func (s *Store) Job(id int64) Span {
	return Span{s.recs, s.byJob.get(id)}
}

// Nodes returns every node that has at least one record, unordered.
func (s *Store) Nodes() []cname.Name {
	out := []cname.Name{}
	for _, m := range s.byNode.shards {
		for n := range m {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return cname.Compare(out[i], out[j]) < 0 })
	return out
}

// Span returns the first and last record times; ok is false for an
// empty store.
func (s *Store) Span() (first, last time.Time, ok bool) {
	if len(s.recs) == 0 {
		return first, last, false
	}
	return s.recs[0].Time, s.recs[len(s.recs)-1].Time, true
}

// WriteDir renders records into raw log files under dir, one file per
// stream, using the scheduler dialect.
func WriteDir(dir string, recs []events.Record, sched topology.SchedulerType) error {
	grouped := loggen.RenderAll(recs, sched)
	return writeFiles(dir, grouped)
}

// WriteDirChaos renders records like WriteDir but pushes every stream's
// lines through a chaos injector first — the render-time fault path the
// robustness harness uses to produce damaged corpora. The returned
// report is the injected-corruption ground truth.
func WriteDirChaos(dir string, recs []events.Record, sched topology.SchedulerType, cfg chaos.Config) (chaos.Report, error) {
	grouped := loggen.RenderAll(recs, sched)
	inj := chaos.New(cfg)
	corrupted := inj.CorruptAll(grouped)
	return inj.Report, writeFiles(dir, corrupted)
}

func writeFiles(dir string, files map[string][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	for name, lines := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			return fmt.Errorf("logstore: %w", err)
		}
	}
	return nil
}

// ErrInterrupted is wrapped by the error a replay returns when a context
// cancellation stops it before the end of the corpus (cmd/watch with
// -checkpoint resumes from the saved watcher state).
var ErrInterrupted = errors.New("logstore: load interrupted")

// FileWarning records one ingestion problem that was survived rather
// than fatal: an unreadable or empty log file skipped from the load.
type FileWarning struct {
	// File is the log file name (relative to the load directory).
	File string
	// Err describes why the file was skipped.
	Err string
}

// String renders the warning for operator output.
func (w FileWarning) String() string {
	return fmt.Sprintf("logstore: skipped %s: %s", w.File, w.Err)
}

// IngestReport accounts a directory load: per-stream parse ledgers,
// files skipped with warnings, and streams that were absent entirely.
// It is the ingestion layer's answer to noisy, incomplete, partially
// missing production logs — quantify the damage, never refuse the load.
type IngestReport struct {
	// Streams holds one parse ledger per file that was read, in
	// loggen.AllStreams order.
	Streams []logparse.StreamReport
	// Skipped lists files that existed but could not be used
	// (unreadable, empty); the load continued without them.
	Skipped []FileWarning
	// Missing names streams whose log file was absent from the
	// directory (a normal condition for systems that lack the stream,
	// but the pipeline's degraded-mode input).
	Missing []string
}

// TotalParsed sums records parsed across streams.
func (r *IngestReport) TotalParsed() int {
	n := 0
	for _, s := range r.Streams {
		n += s.Parsed
	}
	return n
}

// TotalQuarantined sums malformed lines across streams.
func (r *IngestReport) TotalQuarantined() int {
	n := 0
	for _, s := range r.Streams {
		n += s.Quarantined
	}
	return n
}

// TotalReordered sums out-of-order arrivals across streams.
func (r *IngestReport) TotalReordered() int {
	n := 0
	for _, s := range r.Streams {
		n += s.Reordered
	}
	return n
}

// Degraded reports whether the load was anything less than clean.
func (r *IngestReport) Degraded() bool {
	return len(r.Skipped) > 0 || r.TotalQuarantined() > 0
}

// ParseErrors flattens every stream's retained errors, for callers of
// the legacy LoadDir shape.
func (r *IngestReport) ParseErrors() []error {
	var out []error
	for _, s := range r.Streams {
		out = append(out, s.Errs...)
	}
	return out
}

// Warnings renders the report as operator-facing warning lines: skipped
// files first, then per-stream quarantine summaries with samples.
func (r *IngestReport) Warnings() []string {
	var out []string
	for _, w := range r.Skipped {
		out = append(out, w.String())
	}
	for _, s := range r.Streams {
		if s.Quarantined == 0 {
			continue
		}
		msg := fmt.Sprintf("logstore: %s: quarantined %d of %d lines (%d parsed, %d reordered)",
			s.Stream, s.Quarantined, s.Lines, s.Parsed, s.Reordered)
		for _, sample := range s.Samples {
			msg += fmt.Sprintf("\n  e.g. %q", sample)
		}
		out = append(out, msg)
	}
	return out
}

// String renders a one-line ingest summary.
func (r *IngestReport) String() string {
	return fmt.Sprintf("ingest: %d records parsed, %d lines quarantined, %d reordered, %d files skipped, %d streams missing",
		r.TotalParsed(), r.TotalQuarantined(), r.TotalReordered(), len(r.Skipped), len(r.Missing))
}

// LoadDirReport ingests a directory previously produced by WriteDir (or
// by a compatible external tool): each recognised file name is parsed
// with its stream's format. Ingestion never hard-fails on a bad file —
// unreadable or empty files are skipped with a warning in the report,
// malformed lines are quarantined per stream, and the returned store
// holds everything that did parse. The error is reserved for callers
// passing a path that exists but is not a directory.
func LoadDirReport(dir string, sched topology.SchedulerType) (*Store, *IngestReport, error) {
	return LoadDirReportMined(dir, sched, nil)
}

// LoadDirReportMined is LoadDirReport with a mined-profile fallback
// classifier (miner.Matcher): quarantined lines a mined template
// covers come back as synthesised records instead of parse errors.
// Lines the static formats accept parse exactly as they always have —
// the fallback only ever sees the quarantine stream. A nil classifier
// is LoadDirReport exactly.
func LoadDirReportMined(dir string, sched topology.SchedulerType, mc logparse.MinedClassifier) (*Store, *IngestReport, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, nil, fmt.Errorf("logstore: %s is not a directory", dir)
	}
	var recs []events.Record
	rep := &IngestReport{}
	for _, stream := range loggen.AllStreams() {
		name := loggen.FileName(stream)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			rep.Missing = append(rep.Missing, stream.String())
			continue
		}
		if err != nil {
			rep.Skipped = append(rep.Skipped, FileWarning{File: name, Err: err.Error()})
			continue
		}
		text := string(data)
		if strings.TrimSpace(text) == "" {
			rep.Skipped = append(rep.Skipped, FileWarning{File: name, Err: "empty file"})
			continue
		}
		lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
		got, srep := logparse.ParseLinesReportMined(stream, sched, lines, mc)
		recs = append(recs, got...)
		rep.Streams = append(rep.Streams, srep)
	}
	return New(recs), rep, nil
}

// LoadDir is the legacy load shape: the store plus a flat parse-error
// list. It survives unreadable and empty files the same way
// LoadDirReport does; callers wanting the per-stream ledger and skip
// warnings should use LoadDirReport.
func LoadDir(dir string, sched topology.SchedulerType) (*Store, []error, error) {
	store, rep, err := LoadDirReport(dir, sched)
	if err != nil {
		return nil, nil, err
	}
	return store, rep.ParseErrors(), nil
}
