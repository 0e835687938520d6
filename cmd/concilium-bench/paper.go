package main

import (
	"fmt"
	"time"

	"concilium/internal/core"
	"concilium/internal/experiments"
)

// The paper's figures (1–7) and the two analytic extensions (8, 9).
// Each regenerates its series into c.w and returns its deterministic
// headline check values — the numbers quoted alongside the rendered
// series, keyed for the bench report.

func fig1(c figCtx) (map[string]float64, error) {
	cfg := experiments.DefaultFig1Config()
	cfg.Workers = c.workers
	res, err := experiments.Fig1(cfg, c.rng)
	if err != nil {
		return nil, err
	}
	if err := c.render.series(c.w, "Figure 1: jump table occupancy (x = overlay N)",
		res.Analytic, res.MonteCarlo); err != nil {
		return nil, err
	}
	fmt.Fprintf(c.w, "worst analytic-vs-simulated mean gap: %.2f slots\n", res.MaxMeanError())
	return map[string]float64{"max_mean_error": res.MaxMeanError()}, nil
}

// fig23 is Figure 2, or with suppression Figure 3.
func fig23(suppression bool) func(c figCtx) (map[string]float64, error) {
	return func(c figCtx) (map[string]float64, error) {
		cfg := experiments.DefaultFig23Config(suppression)
		cfg.Workers = c.workers
		res, err := experiments.Fig23(cfg)
		if err != nil {
			return nil, err
		}
		title := "Figure 2: density test error rates (no suppression)"
		if suppression {
			title = "Figure 3: density test error rates (suppression attacks)"
		}
		series := append(append([]experiments.Series(nil), res.FalsePositives...), res.FalseNegatives...)
		if err := c.render.series(c.w, title+" (x = gamma)", series...); err != nil {
			return nil, err
		}
		if err := c.render.table(c.w, res.SummaryTable(title+" — optimal gamma")); err != nil {
			return nil, err
		}
		sum := 0.0
		for _, y := range res.Optimal.Y {
			sum += y
		}
		return map[string]float64{"optimal_error_sum": sum}, nil
	}
}

func fig4(c figCtx) (map[string]float64, error) {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Topology = c.topoCfg
	sysCfg.OverlayFraction = c.overlayFrac
	sysCfg.ArchiveRetention = 5 * time.Minute
	sysCfg.Workers = c.workers
	res, err := experiments.Fig4(experiments.Fig4Config{System: sysCfg, SampleHosts: 40}, c.rng)
	if err != nil {
		return nil, err
	}
	if err := c.render.series(c.w, "Figure 4: trees sampled vs forest coverage (x = peer trees)",
		res.Coverage, res.Vouching); err != nil {
		return nil, err
	}
	fmt.Fprintf(c.w, "own-tree coverage: %.1f%% (paper: ~25%%), hosts averaged: %d\n",
		100*res.OwnTreeCoverage(), res.Hosts)
	return map[string]float64{
		"own_tree_coverage": res.OwnTreeCoverage(),
		"hosts":             float64(res.Hosts),
	}, nil
}

func fig5(c figCtx) (map[string]float64, error) {
	checks := make(map[string]float64, 4)
	for _, mal := range []float64{0, 0.2} {
		cfg := experiments.DefaultFig5Config(mal)
		cfg.System.Topology = c.topoCfg
		cfg.System.OverlayFraction = c.overlayFrac
		cfg.System.Workers = c.workers
		cfg.Workers = c.workers
		res, err := experiments.Fig5(cfg, c.rng)
		if err != nil {
			return nil, err
		}
		label := "Figure 5a: blame PDFs, faithful reporting"
		key, paperRates := "faithful", "1.8% / 93.8%"
		if mal > 0 {
			label = "Figure 5b: blame PDFs, 20% colluding probe inversion"
			key, paperRates = "collusion", "8.4% / 71.3%"
		}
		if err := c.render.series(c.w, label+" (x = blame)",
			experiments.PDFSeries("faulty nodes", res.FaultyPDF),
			experiments.PDFSeries("non-faulty nodes", res.InnocentPDF)); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.w, "threshold %.0f%%: innocent guilty %.1f%%, faulty guilty %.1f%% (paper: %s)\n",
			100*res.Threshold, 100*res.PGood, 100*res.PFaulty, paperRates)
		checks["p_good_"+key] = res.PGood
		checks["p_faulty_"+key] = res.PFaulty
	}
	return checks, nil
}

func fig6(c figCtx) (map[string]float64, error) {
	checks := make(map[string]float64, 2)
	for _, rates := range []struct {
		label, key     string
		pGood, pFaulty float64
	}{
		{"Figure 6a: w=100, faithful reporting (p_good=1.8%, p_faulty=93.8%)", "faithful", 0.018, 0.938},
		{"Figure 6b: w=100, 20% collusion (p_good=8.4%, p_faulty=71.3%)", "collusion", 0.084, 0.713},
	} {
		cfg := experiments.DefaultFig6Config(rates.pGood, rates.pFaulty)
		cfg.Workers = c.workers
		res, err := experiments.Fig6(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.render.series(c.w, rates.label+" (x = m)",
			res.FalsePositive, res.FalseNegative); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.w, "minimal m with both error rates <= 1%%: %d\n", res.MinimalM)
		checks["minimal_m_"+rates.key] = float64(res.MinimalM)
	}
	return checks, nil
}

func fig7(c figCtx) (map[string]float64, error) {
	table, reports, err := experiments.Bandwidth(experiments.DefaultBandwidthConfig())
	if err != nil {
		return nil, err
	}
	if err := c.render.table(c.w, table); err != nil {
		return nil, err
	}
	return map[string]float64{"overlay_sizes": float64(len(reports))}, nil
}

func fig8(c figCtx) (map[string]float64, error) {
	cfg := experiments.DefaultCollusionSweepConfig()
	cfg.Base.System.Topology = c.topoCfg
	cfg.Base.System.OverlayFraction = c.overlayFrac
	cfg.Base.System.Workers = c.workers
	cfg.Base.Workers = c.workers
	cfg.Workers = c.workers
	res, err := experiments.CollusionSweep(cfg, c.rng)
	if err != nil {
		return nil, err
	}
	if err := c.render.series(c.w, "Extension: verdict quality vs colluding fraction (x = c)",
		res.PGood, res.PFault); err != nil {
		return nil, err
	}
	if err := c.render.table(c.w, res.Table()); err != nil {
		return nil, err
	}
	checks := make(map[string]float64, 2)
	for _, y := range res.PGood.Y {
		checks["pgood_sum"] += y
	}
	for _, y := range res.PFault.Y {
		checks["pfault_sum"] += y
	}
	return checks, nil
}

func fig9(c figCtx) (map[string]float64, error) {
	t := experiments.Table{
		Title:   "Extension: median-consensus suppression defense (N=1131, optimal gamma per cell)",
		Columns: []string{"collusion", "standard FP", "standard FN", "consensus FP", "consensus FN"},
	}
	checks := make(map[string]float64)
	for _, collusion := range []float64{0.1, 0.2, 0.3, 0.4} {
		scen := core.DensityScenario{N: 1131, Collusion: collusion, Suppression: true}
		std, err := core.OptimalGamma(scen, 1.0001, 3, 150)
		if err != nil {
			return nil, err
		}
		best := core.DensityErrorRates{FalsePositive: 1, FalseNegative: 1}
		for g := 1.01; g < 3; g += 0.01 {
			r, err := core.ConsensusErrorRates(scen, g)
			if err != nil {
				return nil, err
			}
			if r.Sum() < best.Sum() {
				best = r
			}
		}
		checks[fmt.Sprintf("consensus_sum_c%.0f", 100*collusion)] = best.Sum()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*collusion),
			fmt.Sprintf("%.4f", std.FalsePositive),
			fmt.Sprintf("%.4f", std.FalseNegative),
			fmt.Sprintf("%.4f", best.FalsePositive),
			fmt.Sprintf("%.4f", best.FalseNegative),
		})
	}
	if err := c.render.table(c.w, t); err != nil {
		return nil, err
	}
	return checks, nil
}
