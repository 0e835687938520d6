// Command concilium-bench regenerates the paper's tables and figures as
// text series.
//
// Usage:
//
//	concilium-bench [-fig N] [-scale small|default|treelike|paper] [-seed N] [-format text|csv] [-workers N]
//	                [-scale-n N,N,...] [-traffic-n N,N,...] [-json report.json]
//	                [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Figures: 1 (occupancy model), 2 (density errors), 3 (density errors
// under suppression), 4 (forest coverage), 5 (blame PDFs + §4.3 rates),
// 6 (accusation error vs m), 7 (§4.4 bandwidth), plus extensions:
// 8 (collusion-fraction sweep), 9 (median-consensus suppression
// defense), 10 (BuildCompactSystem scale at the -scale-n overlay sizes),
// 12 (adversarial conviction ROC grid; see internal/adversary), and
// 13 (compact-plane diagnosis traffic at the -traffic-n overlay sizes).
// -fig 0 runs the paper's seven in text mode, plus figures 10, 12, and
// 13 in benchmark mode.
//
// -json switches to benchmark mode: every selected figure runs against
// a per-figure derived seed (independent of the shared-stream text
// mode), is timed with allocation accounting and a serial reference run
// for speedup, and the results land in a versioned benchreport.Report
// together with the canonical metrics snapshot of an instrumented chaos
// campaign. The report's deterministic core is byte-identical across
// -workers values; the tool errors out if it is not.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"concilium/internal/benchreport"
	"concilium/internal/chaos"
	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/parexec"
	"concilium/internal/profiling"
	"concilium/internal/topology"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "concilium-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("concilium-bench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (0 = all)")
	scale := fs.String("scale", "default", "topology scale: small, default, treelike, treelike-paper, or paper")
	seed := fs.Uint64("seed", 42, "random seed")
	format := fs.String("format", "text", "output format: text or csv")
	workers := fs.Int("workers", 0, "worker pool size for parallel trials (0 = GOMAXPROCS); results are identical for any value")
	scaleN := fs.String("scale-n", "1000,5000,20000", "comma-separated overlay sizes for the Scale figure (-fig 10)")
	trafficN := fs.String("traffic-n", "1000,20000", "comma-separated overlay sizes for the Traffic figure (-fig 13)")
	jsonPath := fs.String("json", "", "write a machine-readable bench report to this path (benchmark mode)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write an allocs-space heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scaleNs, err := parseScaleNs(*scaleN)
	if err != nil {
		return err
	}
	trafficNs, err := parseScaleNs(*trafficN)
	if err != nil {
		return fmt.Errorf("-traffic-n: %w", err)
	}
	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	err = runMode(w, *jsonPath, *fig, *scale, *seed, *format, *workers, scaleNs, trafficNs)
	if cerr := stopCPU(); err == nil {
		err = cerr
	}
	if merr := profiling.WriteHeap(*memProfile); err == nil {
		err = merr
	}
	return err
}

func runMode(w io.Writer, jsonPath string, fig int, scale string, seed uint64, format string, workers int, scaleNs, trafficNs []int) error {
	var render renderer
	switch format {
	case "text":
		render = renderer{
			series: experiments.WriteSeries,
			table: func(w io.Writer, t experiments.Table) error {
				return experiments.WriteTable(w, t)
			},
		}
	case "csv":
		render = renderer{
			series: func(w io.Writer, _ string, series ...experiments.Series) error {
				return experiments.WriteSeriesCSV(w, series...)
			},
			table: func(w io.Writer, t experiments.Table) error {
				return experiments.WriteTableCSV(w, t)
			},
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}

	topoCfg, overlayFrac, err := scaleConfig(scale)
	if err != nil {
		return err
	}
	figs := []int{fig}
	if fig == 0 {
		figs = []int{1, 2, 3, 4, 5, 6, 7}
		if jsonPath != "" {
			figs = append(figs, scaleFig, adversaryFig, trafficFig)
		}
	}

	if jsonPath != "" {
		return runBenchmark(w, jsonPath, figs, topoCfg, overlayFrac, scale, seed, workers, scaleNs, trafficNs, render)
	}

	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	for _, f := range figs {
		start := time.Now()
		if f == scaleFig {
			// The Scale figure draws from the benchmark-mode substream
			// family so its checks match -json runs at the same seed.
			scaleFigs, err := runScale(io.Discard, scaleNs, parexec.NewSeed(seed, seed^0xbe9c5c95c4b4f12d), workers)
			if err != nil {
				return fmt.Errorf("figure %d: %w", f, err)
			}
			if err := render.table(w, scaleTable(scaleFigs)); err != nil {
				return fmt.Errorf("figure %d: %w", f, err)
			}
		} else if f == trafficFig {
			// Same substream family as benchmark mode, for the same reason.
			trafficFigs, err := runTraffic(io.Discard, trafficNs, parexec.NewSeed(seed, seed^0xbe9c5c95c4b4f12d), workers)
			if err != nil {
				return fmt.Errorf("figure %d: %w", f, err)
			}
			if err := render.table(w, trafficTable(trafficFigs)); err != nil {
				return fmt.Errorf("figure %d: %w", f, err)
			}
		} else if f == adversaryFig {
			if err := runAdversaryText(w, render, seed, workers); err != nil {
				return fmt.Errorf("figure %d: %w", f, err)
			}
		} else if _, err := runFig(w, render, f, topoCfg, overlayFrac, workers, rng); err != nil {
			return fmt.Errorf("figure %d: %w", f, err)
		}
		if format == "text" {
			fmt.Fprintf(w, "(figure %d regenerated in %v)\n\n", f, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// runBenchmark runs every selected figure in benchmark mode and writes
// a benchreport to jsonPath. Each figure gets its own derived seed so
// the serial reference run and the measured run consume identical
// random streams — the tool asserts their deterministic check values
// match, which is what makes the report's canonical part worker-count
// invariant by construction.
func runBenchmark(w io.Writer, jsonPath string, figs []int, topoCfg topology.Config, overlayFrac float64, scale string, seed uint64, workers int, scaleNs, trafficNs []int, render renderer) error {
	resolved := parexec.Workers(workers)
	root := parexec.NewSeed(seed, seed^0xbe9c5c95c4b4f12d)
	report := benchreport.New("concilium-bench", seed, scale)
	report.Env = benchreport.Env{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Workers:       resolved,
		Cmd:           "concilium-bench",
	}

	for _, f := range figs {
		if f == scaleFig {
			scaleFigs, err := runScale(w, scaleNs, root, workers)
			if err != nil {
				return err
			}
			report.Figures = append(report.Figures, scaleFigs...)
			continue
		}
		if f == trafficFig {
			trafficFigs, err := runTraffic(w, trafficNs, root, workers)
			if err != nil {
				return err
			}
			report.Figures = append(report.Figures, trafficFigs...)
			continue
		}
		if f == adversaryFig {
			advFig, advRep, err := runAdversaryFig(seed, resolved)
			if err != nil {
				return err
			}
			advFig.Timing.SpeedupX = 1
			if resolved != 1 {
				serialFig, _, err := runAdversaryFig(seed, 1)
				if err != nil {
					return fmt.Errorf("adversary (serial reference): %w", err)
				}
				if !checksEqual(advFig.Checks, serialFig.Checks) {
					return fmt.Errorf("adversary: checks diverge between workers=1 and workers=%d: %v vs %v",
						resolved, serialFig.Checks, advFig.Checks)
				}
				if advFig.Timing.WallNs > 0 {
					advFig.Timing.SpeedupX = float64(serialFig.Timing.WallNs) / float64(advFig.Timing.WallNs)
				}
			}
			report.Figures = append(report.Figures, advFig)
			fmt.Fprintf(w, "adversary: %v, %d cells, invariants %s (speedup %.2fx at %d workers)\n",
				time.Duration(advFig.Timing.WallNs).Round(time.Millisecond), len(advRep.Cells),
				map[bool]string{true: "ok", false: "FAILED"}[advRep.Passed()], advFig.Timing.SpeedupX, resolved)
			continue
		}
		name := fmt.Sprintf("fig%d", f)
		measure := func(nWorkers int) (map[string]float64, benchreport.Timing, error) {
			return measureFig(render, f, topoCfg, overlayFrac, nWorkers, root.Stream(uint64(f)))
		}
		checks, timing, err := measure(resolved)
		if err != nil {
			return fmt.Errorf("figure %d: %w", f, err)
		}
		timing.SpeedupX = 1
		if resolved != 1 {
			serialChecks, serialTiming, err := measure(1)
			if err != nil {
				return fmt.Errorf("figure %d (serial reference): %w", f, err)
			}
			if !checksEqual(checks, serialChecks) {
				return fmt.Errorf("figure %d: checks diverge between workers=1 and workers=%d: %v vs %v",
					f, resolved, serialChecks, checks)
			}
			if timing.WallNs > 0 {
				timing.SpeedupX = float64(serialTiming.WallNs) / float64(timing.WallNs)
			}
		}
		report.Figures = append(report.Figures, benchreport.Figure{Name: name, Checks: checks, Timing: timing})
		fmt.Fprintf(w, "%s: %v (speedup %.2fx at %d workers)\n",
			name, time.Duration(timing.WallNs).Round(time.Millisecond), timing.SpeedupX, resolved)
	}

	// The metrics snapshot comes from an instrumented chaos campaign —
	// the one scenario that drives every instrumented layer (probing,
	// stewarded delivery, blame, DHT, netsim churn) under one registry.
	chaosCfg := chaos.ShortConfig(seed)
	chaosCfg.Workers = workers
	start := time.Now()
	chaosRep, err := chaos.Run(chaosCfg)
	if err != nil {
		return fmt.Errorf("chaos scenario: %w", err)
	}
	wall := time.Since(start)
	report.Metrics = chaosRep.Metrics
	report.Figures = append(report.Figures, benchreport.Figure{
		Name: "chaos-short",
		Checks: map[string]float64{
			"sent":           float64(chaosRep.Sent),
			"delivered":      float64(chaosRep.Delivered),
			"convictions":    float64(chaosRep.Convictions),
			"invariants_ok":  boolToF(chaosRep.Passed()),
			"chains_fetched": float64(chaosRep.ChainsFetched),
		},
		Timing: benchreport.Timing{
			WallNs:  wall.Nanoseconds(),
			NsPerOp: perOp(wall.Nanoseconds(), int64(chaosRep.Sent)),
			Ops:     int64(chaosRep.Sent),
		},
	})
	fmt.Fprintf(w, "chaos-short: %v (%d canonical metric series)\n", wall.Round(time.Millisecond),
		len(report.Metrics.Counters)+len(report.Metrics.Gauges)+len(report.Metrics.Histograms))

	// The global verify cache is process-wide and scheduling-dependent:
	// reserved non-deterministic gauges, never part of the canonical
	// snapshot.
	report.WallMetrics = benchreport.VerifyCacheSnapshot()

	out, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := benchreport.Encode(out, report); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "bench report (%d figures) written to %s\n", len(report.Figures), jsonPath)
	return nil
}

// measureFig runs one figure with full output discarded, returning its
// deterministic checks and a timing envelope with allocation deltas.
func measureFig(render renderer, fig int, topoCfg topology.Config, overlayFrac float64, workers int, rng *rand.Rand) (map[string]float64, benchreport.Timing, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	checks, err := runFig(io.Discard, render, fig, topoCfg, overlayFrac, workers, rng)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, benchreport.Timing{}, err
	}
	t := benchreport.Timing{
		WallNs:      wall.Nanoseconds(),
		NsPerOp:     wall.Nanoseconds(),
		AllocsPerOp: int64(after.Mallocs - before.Mallocs),
		BytesPerOp:  int64(after.TotalAlloc - before.TotalAlloc),
		Ops:         1,
	}
	return checks, t, nil
}

func perOp(wallNs, ops int64) int64 {
	if ops <= 0 {
		return wallNs
	}
	return wallNs / ops
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func checksEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// renderer abstracts the output format.
type renderer struct {
	series func(io.Writer, string, ...experiments.Series) error
	table  func(io.Writer, experiments.Table) error
}

func scaleConfig(scale string) (topology.Config, float64, error) {
	switch scale {
	case "small":
		return topology.TestConfig(), 0.5, nil
	case "default":
		return topology.DefaultConfig(), 0.03, nil
	case "treelike":
		// Path-convergent variant matching the paper's Figure 4 coverage.
		return topology.TreelikeConfig(), 0.03, nil
	case "treelike-paper":
		return topology.TreelikePaperConfig(), 0.03, nil
	case "paper":
		return topology.PaperConfig(), 0.03, nil
	default:
		return topology.Config{}, 0, fmt.Errorf("unknown scale %q", scale)
	}
}

// runFig regenerates one figure into w and returns its deterministic
// headline check values — the numbers quoted alongside the rendered
// series, keyed for the bench report.
func runFig(w io.Writer, render renderer, fig int, topoCfg topology.Config, overlayFrac float64, workers int, rng *rand.Rand) (map[string]float64, error) {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Topology = topoCfg
	sysCfg.OverlayFraction = overlayFrac
	sysCfg.ArchiveRetention = 5 * time.Minute
	sysCfg.Workers = workers

	switch fig {
	case 1:
		cfg := experiments.DefaultFig1Config()
		cfg.Workers = workers
		res, err := experiments.Fig1(cfg, rng)
		if err != nil {
			return nil, err
		}
		if err := render.series(w, "Figure 1: jump table occupancy (x = overlay N)",
			res.Analytic, res.MonteCarlo); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "worst analytic-vs-simulated mean gap: %.2f slots\n", res.MaxMeanError())
		return map[string]float64{"max_mean_error": res.MaxMeanError()}, nil

	case 2, 3:
		suppression := fig == 3
		cfg := experiments.DefaultFig23Config(suppression)
		cfg.Workers = workers
		res, err := experiments.Fig23(cfg)
		if err != nil {
			return nil, err
		}
		title := "Figure 2: density test error rates (no suppression)"
		if suppression {
			title = "Figure 3: density test error rates (suppression attacks)"
		}
		series := append(append([]experiments.Series(nil), res.FalsePositives...), res.FalseNegatives...)
		if err := render.series(w, title+" (x = gamma)", series...); err != nil {
			return nil, err
		}
		if err := render.table(w, res.SummaryTable(title+" — optimal gamma")); err != nil {
			return nil, err
		}
		sum := 0.0
		for _, y := range res.Optimal.Y {
			sum += y
		}
		return map[string]float64{"optimal_error_sum": sum}, nil

	case 4:
		cfg := experiments.Fig4Config{System: sysCfg, SampleHosts: 40}
		res, err := experiments.Fig4(cfg, rng)
		if err != nil {
			return nil, err
		}
		if err := render.series(w, "Figure 4: trees sampled vs forest coverage (x = peer trees)",
			res.Coverage, res.Vouching); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "own-tree coverage: %.1f%% (paper: ~25%%), hosts averaged: %d\n",
			100*res.OwnTreeCoverage(), res.Hosts)
		return map[string]float64{
			"own_tree_coverage": res.OwnTreeCoverage(),
			"hosts":             float64(res.Hosts),
		}, nil

	case 5:
		checks := make(map[string]float64, 4)
		for _, mal := range []float64{0, 0.2} {
			cfg := experiments.DefaultFig5Config(mal)
			cfg.System.Topology = topoCfg
			cfg.System.OverlayFraction = overlayFrac
			cfg.System.Workers = workers
			cfg.Workers = workers
			res, err := experiments.Fig5(cfg, rng)
			if err != nil {
				return nil, err
			}
			label := "Figure 5a: blame PDFs, faithful reporting"
			key := "faithful"
			if mal > 0 {
				label = "Figure 5b: blame PDFs, 20% colluding probe inversion"
				key = "collusion"
			}
			if err := render.series(w, label+" (x = blame)",
				experiments.PDFSeries("faulty nodes", res.FaultyPDF),
				experiments.PDFSeries("non-faulty nodes", res.InnocentPDF)); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "threshold %.0f%%: innocent guilty %.1f%%, faulty guilty %.1f%% (paper: %s)\n",
				100*res.Threshold, 100*res.PGood, 100*res.PFaulty, paperRates(mal))
			checks["p_good_"+key] = res.PGood
			checks["p_faulty_"+key] = res.PFaulty
		}
		return checks, nil

	case 6:
		checks := make(map[string]float64, 2)
		for _, rates := range []struct {
			label, key     string
			pGood, pFaulty float64
		}{
			{"Figure 6a: w=100, faithful reporting (p_good=1.8%, p_faulty=93.8%)", "faithful", 0.018, 0.938},
			{"Figure 6b: w=100, 20% collusion (p_good=8.4%, p_faulty=71.3%)", "collusion", 0.084, 0.713},
		} {
			cfg := experiments.DefaultFig6Config(rates.pGood, rates.pFaulty)
			cfg.Workers = workers
			res, err := experiments.Fig6(cfg)
			if err != nil {
				return nil, err
			}
			if err := render.series(w, rates.label+" (x = m)",
				res.FalsePositive, res.FalseNegative); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "minimal m with both error rates <= 1%%: %d\n", res.MinimalM)
			checks["minimal_m_"+rates.key] = float64(res.MinimalM)
		}
		return checks, nil

	case 7:
		table, reports, err := experiments.Bandwidth(experiments.DefaultBandwidthConfig())
		if err != nil {
			return nil, err
		}
		if err := render.table(w, table); err != nil {
			return nil, err
		}
		return map[string]float64{"overlay_sizes": float64(len(reports))}, nil

	case 8:
		cfg := experiments.DefaultCollusionSweepConfig()
		cfg.Base.System.Topology = topoCfg
		cfg.Base.System.OverlayFraction = overlayFrac
		cfg.Base.System.Workers = workers
		cfg.Base.Workers = workers
		cfg.Workers = workers
		res, err := experiments.CollusionSweep(cfg, rng)
		if err != nil {
			return nil, err
		}
		if err := render.series(w, "Extension: verdict quality vs colluding fraction (x = c)",
			res.PGood, res.PFault); err != nil {
			return nil, err
		}
		if err := render.table(w, res.Table()); err != nil {
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

	case 9:
		model := core.DefaultOccupancyModel()
		t := experiments.Table{
			Title:   "Extension: median-consensus suppression defense (N=1131, optimal gamma per cell)",
			Columns: []string{"collusion", "standard FP", "standard FN", "consensus FP", "consensus FN"},
		}
		checks := make(map[string]float64)
		for _, c := range []float64{0.1, 0.2, 0.3, 0.4} {
			scen := core.DensityScenario{N: 1131, Collusion: c, Suppression: true}
			std, err := core.OptimalGamma(model, scen, 1.0001, 3, 150)
			if err != nil {
				return nil, err
			}
			best := core.DensityErrorRates{FalsePositive: 1, FalseNegative: 1}
			for g := 1.01; g < 3; g += 0.01 {
				r, err := core.ConsensusErrorRates(model, scen, g)
				if err != nil {
					return nil, err
				}
				if r.Sum() < best.Sum() {
					best = r
				}
			}
			checks[fmt.Sprintf("consensus_sum_c%.0f", 100*c)] = best.Sum()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", 100*c),
				fmt.Sprintf("%.4f", std.FalsePositive),
				fmt.Sprintf("%.4f", std.FalseNegative),
				fmt.Sprintf("%.4f", best.FalsePositive),
				fmt.Sprintf("%.4f", best.FalseNegative),
			})
		}
		if err := render.table(w, t); err != nil {
			return nil, err
		}
		return checks, nil

	default:
		return nil, fmt.Errorf("unknown figure %d (valid: 1-10, 12, 13)", fig)
	}
}

func paperRates(malicious float64) string {
	if malicious > 0 {
		return "8.4% / 71.3%"
	}
	return "1.8% / 93.8%"
}
