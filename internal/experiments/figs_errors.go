package experiments

// Benign-error experiments: Figs 10 and 11.

import (
	"fmt"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/faults"
	"hpcfail/internal/report"
	"hpcfail/internal/sedc"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Nodes with errors vs failed nodes over 16 days",
		Paper: "erroring nodes far outnumber failed nodes (<6/day); page-fault locks most common",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Mean CPU temperature of 2 nodes per blade across 16 blades (1 day)",
		Paper: "steady ~40C on all powered nodes; one powered-off node reads 0C",
		Run:   runFig11,
	})
}

func runFig10(cfg Config) (*Result, error) {
	p, err := profileFor("S1", cfg)
	if err != nil {
		return nil, err
	}
	// Fig 10 samples a quiet period: fewer failures per day.
	p.EpisodesPerDay = 0.25
	p.SinglesPerDay = 1.5
	nDays := days(cfg, 16)
	scn, res, err := simulate(p, nDays, cfg.Seed+29)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("Fig 10 — nodes with errors vs failed nodes per day",
		"day", "hw errors", "mce triggers", "lustre I/O", "pagefault locks", "failed")
	countNodes := func(cat string, from, to time.Time) int {
		seen := map[cname.Name]bool{}
		win := res.Store.CategoryWindow(cat, from, to)
		for i := 0; i < win.Len(); i++ {
			if r := win.At(i); r.Component.IsValid() {
				seen[r.Component] = true
			}
		}
		return len(seen)
	}
	maxFailed, sumRatio, ratioDays := 0, 0.0, 0
	for d := 0; d < nDays; d++ {
		from := simStart.Add(time.Duration(d) * 24 * time.Hour)
		to := from.Add(24 * time.Hour)
		hw := countNodes(faults.CorrectableMemErr.Category(), from, to)
		mce := countNodes(faults.MCE.Category(), from, to)
		lustre := countNodes(faults.LustreIOError.Category(), from, to)
		pfl := countNodes(faults.PageFaultLock.Category(), from, to)
		failed := 0
		for _, det := range res.Detections {
			if !det.Time.Before(from) && det.Time.Before(to) {
				failed++
			}
		}
		if failed > maxFailed {
			maxFailed = failed
		}
		if failed > 0 {
			sumRatio += float64(hw+mce+lustre+pfl) / float64(failed)
			ratioDays++
		}
		tbl.AddRow(fmt.Sprintf("D%d", d+1), hw, mce, lustre, pfl, failed)
	}
	notes := []string{"paper: daily failed nodes < 6 while tens of nodes log errors; more page-fault locks than hardware errors"}
	if ratioDays > 0 {
		notes = append(notes, fmt.Sprintf("measured: erroring/failed node ratio averages %.1fx; max failed/day = %d",
			sumRatio/float64(ratioDays), maxFailed))
	}
	_ = scn
	return &Result{ID: "fig10", Title: "Errors without failures", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

func runFig11(cfg Config) (*Result, error) {
	// Pure sensor simulation: 16 blades in one chassis, 2 sampled nodes
	// each; node 0 of blade B2 is powered off.
	day := simStart
	tbl := report.NewTable("Fig 11 — mean CPU temperature per node (16 blades, 1 day)",
		"blade", "node0 (C)", "node1 (C)")
	offBlade := 1 // "B2" in the paper's 1-indexed naming
	var offMean, onMin, onMax float64
	onMin = 1e9
	for b := 0; b < 16; b++ {
		var means [2]float64
		for n := 0; n < 2; n++ {
			s := sedc.New(cname.Node(0, 0, 0, b, n), sedc.Temperature, cfg.Seed+uint64(b*4+n))
			if b == offBlade && n == 0 {
				s.Profile.PoweredOff = true
			}
			means[n] = s.MeanOver(day, day.Add(24*time.Hour), time.Minute)
			if b == offBlade && n == 0 {
				offMean = means[n]
			} else {
				if means[n] < onMin {
					onMin = means[n]
				}
				if means[n] > onMax {
					onMax = means[n]
				}
			}
		}
		tbl.AddRow(fmt.Sprintf("B%d", b+1), fmt.Sprintf("%.1f", means[0]), fmt.Sprintf("%.1f", means[1]))
	}
	return &Result{ID: "fig11", Title: "CPU temperatures", Tables: []*report.Table{tbl},
		Notes: []string{
			"paper: all powered nodes steady near 40C; the powered-off node reads 0C — temperature does not aid root-cause analysis",
			fmt.Sprintf("measured: powered nodes span %.1f-%.1fC; powered-off node mean %.1fC", onMin, onMax, offMean),
		}}, nil
}
