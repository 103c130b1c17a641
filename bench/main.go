// Command bench is the repository's benchmark: it builds cmd/diagnose
// and cmd/serve from this checkout, generates its inputs from one seeded
// simulator call, drives the real binaries as subprocesses, checks every
// output and prints every metric by name with its unit.
//
//	go run ./bench -workload fresh_read -seed 42 -seconds 10 -trace 0
//	go run ./bench -seed 42 -out run.json            # all four workloads
//	go run ./bench -seed 42 -trace 1 -out layers.json # the traced run
//	go run ./bench -compare a.json b.json
//
// With -trace 0 the end-to-end metrics are measured against the real
// binaries, tracing off. With -trace 1 the same inputs are pushed
// through each layer's public functions in-process, spans are kept in
// memory and the per-layer metrics are derived from them at exit. The
// last line of standard output is one JSON object holding the result.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings. Only seed, seconds and the traced
// switch come from the command line; the rest is fixed per scale.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	scale   scale
	// clients is the number of connections doing timed work at once:
	// one per core, never more.
	clients int
	// rounds is how many times a workload repeats set-up → start →
	// timed loop, each round getting an equal share of the window. Noise
	// on a shared box comes in bursts of seconds; spreading every metric's
	// samples over the whole run keeps one burst from deciding a median.
	rounds int
	// workRoot is where builds, corpora and WALs go; inside the checkout.
	workRoot string
	// prebuilt, when set, is used instead of building in every set-up.
	// Only the package test sets it, to stay within seconds.
	prebuilt binaries
}

func defaultConfig(seed uint64, seconds float64, traced bool) config {
	return config{
		seed: seed, seconds: seconds, traced: traced,
		scale: fullScale, clients: runtime.NumCPU(), rounds: 3,
		workRoot: ".bench_build",
	}
}

// quick shrinks a config to the 3-day corpus the package test runs on.
func (c config) quick() config {
	c.scale, c.rounds = quickScale, 1
	return c
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); empty runs all")
		seed    = flag.Uint64("seed", 42, "seed of the simulated scenario every input is cut from")
		seconds = flag.Float64("seconds", 10, "length of each workload's timed loop")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics against the real binaries; 1: per-layer metrics from in-process spans")
		out     = flag.String("out", "", "write the full result (environment, every metric) to this JSON file")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this JSON file")
		quick   = flag.Bool("quick", false, "3-day corpus, one repetition: a smoke run, not a measurement")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	cfg := defaultConfig(*seed, *seconds, *traced == 1)
	if *quick {
		cfg = cfg.quick()
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		selected = []workload{w}
	}
	if cfg.traced {
		trace = newTracer()
	}

	begin := time.Now()
	report := fileReport{Env: environment(cfg)}
	for _, w := range selected {
		res, err := runWorkload(cfg, w)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		report.Workloads = append(report.Workloads, res)
	}
	report.Env.TotalWallS = time.Since(begin).Seconds()
	if *spans != "" && trace != nil {
		if err := trace.write(*spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// The driver reads the last line: the result of the (last) workload.
	last := report.Workloads[len(report.Workloads)-1]
	line, err := json.Marshal(driverLine{Correct: true, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.gated(cfg.traced)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// driverLine is the one JSON object the driver parses.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gated returns the metrics BENCHMARK.json lists for this kind of run.
func (r *result) gated(traced bool) map[string]driverMetric {
	src := r.EndToEnd
	if traced {
		src = r.Layers
	}
	out := make(map[string]driverMetric, len(src))
	for k, m := range src {
		out[k] = driverMetric{m.Value, m.Unit}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload against the real binaries, or through
// the layers when traced. Set-up is repeated once per round, by the
// workload itself at the top of each round, so setup_s is a median too.
func runWorkload(cfg config, w workload) (*result, error) {
	begin := time.Now()
	if err := os.MkdirAll(cfg.workRoot, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	if workDir, err = filepath.Abs(workDir); err != nil {
		return nil, err
	}

	e := &env{cfg: cfg, w: w, corpus: w.corpus(cfg.scale), corpusDir: filepath.Join(workDir, "logs"), workDir: workDir, traceMark: trace.mark()}
	var res *result
	if cfg.traced {
		for i := 0; i < cfg.rounds; i++ {
			if err := e.setUp(); err != nil {
				return nil, err
			}
		}
		res, err = runTraced(e)
	} else {
		res, err = w.run(e)
	}
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = metric{e.setup.median(), "s", len(e.setup)}
	res.WallS = time.Since(begin).Seconds()
	return res, nil
}

// setUp builds the binaries, simulates the scenario, writes the
// workload's corpus and encodes its requests, from nothing every time:
// the same seed gives the same bytes, so a workload may call it again
// between rounds.
func (e *env) setUp() error {
	// Every set-up starts from the same heap: the previous round's
	// scenario is dropped and collected before the clock starts, not at
	// whatever point of the simulation the collector happens to wake.
	e.scn, e.reqs = nil, nil
	runtime.GC()
	t0 := time.Now()
	var err error
	if e.bins = e.cfg.prebuilt; e.bins == (binaries{}) {
		if e.bins, err = buildBinaries(filepath.Join(e.workDir, "bin")); err != nil {
			return err
		}
	}
	if e.scn, err = generate(e.cfg.seed, e.cfg.scale.days); err != nil {
		return err
	}
	sched := e.scn.Profile.Spec.Scheduler
	corpus, sent := records(e.scn, e.corpus), records(e.scn, e.w.reqs(e.cfg.scale))
	e.corpusRecords, e.sentRecords = len(corpus), len(sent)
	if err = writeCorpus(e.corpusDir, corpus, sched); err != nil {
		return err
	}
	if e.reqs, err = encodeRequests(sent, sched, e.w.perRequest); err != nil {
		return err
	}
	e.setup.add(time.Since(t0), time.Second)
	if len(e.reqs) == 0 {
		return fmt.Errorf("%s: seed %d produced no ingest requests", e.w.name, e.cfg.seed)
	}
	if e.corpusLines, err = countLines(e.corpusDir); err != nil {
		return err
	}
	// The corpus just written is tens of MB of dirty pages; left alone,
	// the kernel writes them back underneath the timed fsyncs that follow.
	syscall.Sync()
	return nil
}

// countLines counts the raw lines of every file in a corpus directory.
func countLines(dir string) (int, error) {
	n := 0
	for _, f := range layerStreamFiles(dir) {
		data, err := os.ReadFile(f.path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		n += strings.Count(string(data), "\n")
	}
	return n, nil
}

// printResult lists every metric of a result by name, with its unit.
func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "workload %s: ops_attempted %d, ops_failed %d, wall %.1f s\n", r.Workload, r.Attempted, r.Failed, r.WallS)
	for _, group := range []struct {
		title string
		ms    map[string]metric
	}{{"end-to-end", r.EndToEnd}, {"detail", r.Detail}, {"per-layer", r.Layers}} {
		names := make([]string, 0, len(group.ms))
		for k := range group.ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group.ms[k]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			fmt.Fprintf(w, "  %-10s %-36s %14.4f %s%s\n", group.title, k, m.Value, m.Unit, n)
		}
	}
}

// fileReport is the -out document.
type fileReport struct {
	Env       envBlock  `json:"env"`
	Workloads []*result `json:"workloads"`
}

// envBlock records where and on what a result was measured.
type envBlock struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Quick      bool    `json:"quick"`
	WALFS      string  `json:"wal_filesystem"`
	TotalWallS float64 `json:"total_wall_s"`
}

func environment(cfg config) envBlock {
	return envBlock{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Quick: cfg.scale == quickScale, WALFS: filesystemOf(cfg.workRoot),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out revision; a checkout that is not a git
// repository (the driver's) has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf names the filesystem the WALs are fsynced on, by its
// statfs magic.
func filesystemOf(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
