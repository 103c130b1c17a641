package experiments

// Ablations: design-choice studies beyond the paper's artifacts. Each
// uses simulator ground truth to score the pipeline, which the paper
// could not do — validation is this reproduction's added value.

import (
	"fmt"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/report"
	"hpcfail/internal/topology"
)

func init() {
	register(Experiment{
		ID:    "ablation-window",
		Title: "Confirm-window width vs NHF/NVF classification accuracy",
		Paper: "(ablation) the ±15 min confirm window balances missed links vs spurious ones",
		Run:   runAblationWindow,
	})
	register(Experiment{
		ID:    "ablation-trace",
		Title: "Stack-trace module analysis on/off vs root-cause accuracy",
		Paper: "(ablation) Table IV module analysis is what reveals application origin",
		Run:   runAblationTrace,
	})
	register(Experiment{
		ID:    "ablation-corruption",
		Title: "Log corruption (drops/truncation) vs detection recall",
		Paper: "(ablation) production logs have missing/partial lines — challenge #1",
		Run:   runAblationCorruption,
	})
	register(Experiment{
		ID:    "ablation-predictor",
		Title: "Predictor burst-window and horizon sweep (precision/recall)",
		Paper: "(ablation) the Fig 14 predictor's operating point",
		Run:   runAblationPredictor,
	})
}

// ablationScenario builds the shared ground-truth scenario.
func ablationScenario(cfg Config) (*faultsim.Scenario, error) {
	p, err := profileFor("S1", cfg)
	if err != nil {
		return nil, err
	}
	nDays := days(cfg, 21)
	return faultsim.Generate(p, simStart, simStart.Add(time.Duration(nDays)*24*time.Hour), cfg.Seed+71)
}

// truthNHFOutcome maps ground truth onto the analyzer's outcome space.
func truthNHFOutcome(k faultsim.NHFKind) core.NHFOutcome {
	switch k {
	case faultsim.NHFFailed:
		return core.NHFOutcomeFailed
	case faultsim.NHFPowerOff:
		return core.NHFOutcomePowerOff
	default:
		return core.NHFOutcomeSkipped
	}
}

func runAblationWindow(cfg Config) (*Result, error) {
	scn, err := ablationScenario(cfg)
	if err != nil {
		return nil, err
	}
	store := logstore.New(scn.Records)
	dets := core.Detect(store.All(), core.DefaultConfig())
	truth := map[string]core.NHFOutcome{}
	for _, n := range scn.NHFs {
		truth[n.Node.String()+n.Time.UTC().Format(time.RFC3339Nano)] = truthNHFOutcome(n.Kind)
	}
	tbl := report.NewTable("Ablation — confirm window vs NHF outcome accuracy",
		"window", "NHFs", "accuracy")
	best, bestW := 0.0, time.Duration(0)
	for _, w := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute, 2 * time.Hour} {
		cfgW := core.DefaultConfig()
		cfgW.ConfirmWindow = w
		corr := &core.Correlator{Store: store, Detections: dets, Cfg: cfgW}
		hits, total := 0, 0
		for _, a := range corr.AnalyzeNHFs() {
			want, ok := truth[a.Node.String()+a.Time.UTC().Format(time.RFC3339Nano)]
			if !ok {
				continue
			}
			total++
			if a.Outcome == want {
				hits++
			}
		}
		acc := 0.0
		if total > 0 {
			acc = float64(hits) / float64(total)
		}
		if acc > best {
			best, bestW = acc, w
		}
		tbl.AddRow(w.String(), total, pct(acc))
	}
	return &Result{ID: "ablation-window", Title: "Confirm window sweep", Tables: []*report.Table{tbl},
		Notes: []string{fmt.Sprintf("best accuracy %s at window %s; too-narrow windows miss slow declarations, too-wide ones steal unrelated failures",
			pct(best), bestW)}}, nil
}

func runAblationTrace(cfg Config) (*Result, error) {
	// Trace-only failures (filesystem bugs whose only evidence is the
	// oops modules) are a minority; aggregate several periods so the
	// comparison is out of sampling noise.
	seeds := []uint64{cfg.Seed + 71, cfg.Seed + 72, cfg.Seed + 73}
	if cfg.Quick {
		seeds = seeds[:1]
	}
	var withHits, withoutHits, withClassHits, withoutClassHits, total int
	for _, seed := range seeds {
		p, err := profileFor("S1", cfg)
		if err != nil {
			return nil, err
		}
		nDays := days(cfg, 21)
		scn, err := faultsim.Generate(p, simStart, simStart.Add(time.Duration(nDays)*24*time.Hour), seed)
		if err != nil {
			return nil, err
		}
		// Variant A: full records. Variant B: trace fields stripped —
		// simulating a miner that ignores Call Trace dumps.
		stripped := make([]events.Record, len(scn.Records))
		copy(stripped, scn.Records)
		for i := range stripped {
			if stripped[i].Field("trace") != "" {
				var clone events.Attrs
				for _, kv := range stripped[i].Fields {
					if kv.K != "trace" {
						clone = append(clone, kv)
					}
				}
				stripped[i].Fields = clone
			}
		}
		score := func(recs []events.Record) (cause, class, n int) {
			res := core.Run(logstore.New(recs), core.DefaultConfig())
			for _, d := range res.Diagnoses {
				for _, f := range scn.Failures {
					if f.Node == d.Detection.Node && absDur(f.Time.Sub(d.Detection.Time)) <= 30*time.Second {
						n++
						if d.Cause == f.Cause {
							cause++
						}
						if d.Class == f.Cause.Class() {
							class++
						}
						break
					}
				}
			}
			return cause, class, n
		}
		c1, k1, n1 := score(scn.Records)
		c2, k2, _ := score(stripped)
		withHits += c1
		withClassHits += k1
		withoutHits += c2
		withoutClassHits += k2
		total += n1
	}
	if total == 0 {
		return nil, fmt.Errorf("experiments: no matched failures for ablation-trace")
	}
	acc := func(h int) float64 { return float64(h) / float64(total) }
	tbl := report.NewTable("Ablation — stack-trace module analysis",
		"variant", "matched failures", "cause accuracy", "class accuracy")
	tbl.AddRow("with traces (Table IV analysis)", total, pct(acc(withHits)), pct(acc(withClassHits)))
	tbl.AddRow("traces stripped", total, pct(acc(withoutHits)), pct(acc(withoutClassHits)))
	return &Result{ID: "ablation-trace", Title: "Trace analysis value", Tables: []*report.Table{tbl},
		Notes: []string{
			"the category signatures recover most causes, but module analysis is what separates",
			"application-origin failures that manifest in the kernel/file system (Observation 7)",
			fmt.Sprintf("measured over %d periods: cause accuracy %s -> %s without traces",
				len(seeds), pct(acc(withHits)), pct(acc(withoutHits))),
		}}, nil
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func runAblationPredictor(cfg Config) (*Result, error) {
	scn, err := ablationScenario(cfg)
	if err != nil {
		return nil, err
	}
	store := logstore.New(scn.Records)
	dets := core.Detect(store.All(), core.DefaultConfig())
	// Predictable ground truth: failures whose causes leave precursor
	// bursts (everything except pure app exits and unknowns).
	predictable := 0
	for _, f := range scn.Failures {
		switch f.Cause.String() {
		case "app-exit", "unknown":
		default:
			predictable++
		}
	}
	tbl := report.NewTable("Ablation — predictor operating points",
		"burst window", "horizon", "alarms", "TP", "FP", "precision", "recall vs predictable")
	for _, bw := range []time.Duration{2 * time.Minute, 10 * time.Minute, 30 * time.Minute} {
		for _, hz := range []time.Duration{10 * time.Minute, 30 * time.Minute, 2 * time.Hour} {
			p := core.NewPredictor(store, core.DefaultConfig())
			p.BurstWindow = bw
			p.Horizon = hz
			alarms := p.Alarms(dets)
			tp, fp := 0, 0
			hitNodes := map[string]bool{}
			for _, a := range alarms {
				if a.Hit {
					tp++
					hitNodes[a.Node.String()+a.Time.Truncate(24*time.Hour).String()] = true
				} else {
					fp++
				}
			}
			precision := 0.0
			if tp+fp > 0 {
				precision = float64(tp) / float64(tp+fp)
			}
			recall := 0.0
			if predictable > 0 {
				recall = float64(tp) / float64(predictable)
				if recall > 1 {
					recall = 1
				}
			}
			tbl.AddRow(bw.String(), hz.String(), len(alarms), tp, fp, pct(precision), pct(recall))
		}
	}
	return &Result{ID: "ablation-predictor", Title: "Predictor sweep", Tables: []*report.Table{tbl},
		Notes: []string{
			fmt.Sprintf("%d of %d ground-truth failures are in principle predictable (non-app-exit, non-unknown)",
				predictable, len(scn.Failures)),
			"short burst windows miss slow precursor chains; long horizons convert false alarms into lucky hits —",
			"the 10-minute window with a 30-minute horizon is the evaluation's operating point",
		}}, nil
}

func runAblationCorruption(cfg Config) (*Result, error) {
	scn, err := ablationScenario(cfg)
	if err != nil {
		return nil, err
	}
	sched := topology.SchedulerSlurm
	byStream := map[events.Stream][]string{}
	for _, r := range scn.Records {
		byStream[r.Stream] = append(byStream[r.Stream], loggen.Render(r, sched)...)
	}
	tbl := report.NewTable("Ablation — log corruption vs pipeline quality",
		"drop 1-in-N", "trunc 1-in-N", "parse errors", "records kept", "detection recall")
	for _, c := range []struct{ drop, trunc int }{
		{0, 0}, {50, 0}, {10, 0}, {0, 10}, {10, 10}, {4, 4},
	} {
		var recs []events.Record
		errCount := 0
		for stream, lines := range byStream {
			corrupted := loggen.Corrupt(lines, c.drop, c.trunc)
			got, errs := logparse.ParseLines(stream, sched, corrupted)
			recs = append(recs, got...)
			errCount += len(errs)
		}
		res := core.Run(logstore.New(recs), core.DefaultConfig())
		matched := 0
		for _, f := range scn.Failures {
			for _, d := range res.Detections {
				if d.Node == f.Node && absDur(d.Time.Sub(f.Time)) <= 30*time.Second {
					matched++
					break
				}
			}
		}
		recall := float64(matched) / float64(len(scn.Failures))
		dropLabel, truncLabel := "-", "-"
		if c.drop > 0 {
			dropLabel = fmt.Sprintf("%d", c.drop)
		}
		if c.trunc > 0 {
			truncLabel = fmt.Sprintf("%d", c.trunc)
		}
		tbl.AddRow(dropLabel, truncLabel, errCount, len(recs), pct(recall))
	}
	return &Result{ID: "ablation-corruption", Title: "Corruption robustness", Tables: []*report.Table{tbl},
		Notes: []string{
			"dropping or truncating log lines degrades recall gracefully: terminal events are",
			"redundant enough (shutdown + heartbeat evidence) that moderate loss is survivable",
		}}, nil
}
