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
// The figures table below is the one list of them. -fig 0 runs the
// paper's seven in text mode, plus figures 10, 12, and 13 in benchmark
// mode.
//
// -json switches to benchmark mode: every selected figure runs against
// a per-figure derived seed (independent of the shared-stream text
// mode) with allocation accounting, and the results land in a versioned
// benchreport.Report together with the canonical metrics snapshot of an
// instrumented chaos campaign. Nothing in the report is timed — bench/
// measures time. The report's deterministic core is byte-identical
// across -workers values; the tool re-runs every figure at -workers 1
// and errors out if any check differs.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"concilium/internal/benchreport"
	"concilium/internal/chaos"
	"concilium/internal/experiments"
	"concilium/internal/parexec"
	"concilium/internal/profiling"
	"concilium/internal/topology"
)

// A figure is one entry of the registered table. run renders the
// figure through c.render into c.w and returns its report entries: one
// for a paper figure, one per overlay size for the Scale and Traffic
// figures (named name-n<N>).
type figure struct {
	num  int
	name string
	// text and bench say whether -fig 0 runs the figure in text mode and
	// in benchmark (-json) mode.
	text, bench bool
	run         func(c figCtx) ([]benchreport.Figure, error)
}

var figures = []figure{
	{1, "fig1", true, true, paper(fig1)},
	{2, "fig2", true, true, paper(fig23(false))},
	{3, "fig3", true, true, paper(fig23(true))},
	{4, "fig4", true, true, paper(fig4)},
	{5, "fig5", true, true, paper(fig5)},
	{6, "fig6", true, true, paper(fig6)},
	{7, "fig7", true, true, paper(fig7)},
	{8, "fig8", false, false, paper(fig8)},
	{9, "fig9", false, false, paper(fig9)},
	{10, "scale", false, true, runScale},
	{12, "adversary", false, true, runAdversary},
	{13, "traffic", false, true, runTraffic},
}

// figCtx is what one run of a figure draws on.
type figCtx struct {
	w      io.Writer
	render renderer
	// num and name are the figure's table entry.
	num  int
	name string

	topoCfg     topology.Config
	overlayFrac float64
	workers     int
	// seed is the -seed value; the adversary campaign derives its own
	// streams from it.
	seed uint64
	// root is the benchmark substream root. The Scale and Traffic
	// figures key one stream per overlay size off it in both modes.
	root parexec.Seed
	// rng is the figure's stream: shared across figures in text mode,
	// root.Stream(num) in benchmark mode.
	rng                *rand.Rand
	scaleNs, trafficNs []int
}

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
	c := figCtx{
		seed:    *seed,
		root:    parexec.NewSeed(*seed, *seed^0xbe9c5c95c4b4f12d),
		workers: parexec.Workers(*workers),
	}
	var err error
	if c.scaleNs, err = parseSizes("scale-n", *scaleN); err != nil {
		return err
	}
	if c.trafficNs, err = parseSizes("traffic-n", *trafficN); err != nil {
		return err
	}
	if c.render, err = rendererFor(*format); err != nil {
		return err
	}
	if c.topoCfg, c.overlayFrac, err = scaleConfig(*scale); err != nil {
		return err
	}
	sel, err := selectFigures(*fig, *jsonPath != "")
	if err != nil {
		return err
	}
	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		err = runBenchmark(w, *jsonPath, *scale, sel, c)
	} else {
		err = runText(w, *format, sel, c)
	}
	if cerr := stopCPU(); err == nil {
		err = cerr
	}
	if merr := profiling.WriteHeap(*memProfile); err == nil {
		err = merr
	}
	return err
}

// selectFigures resolves -fig: one registered figure, or for 0 every
// figure the mode runs by default.
func selectFigures(num int, bench bool) ([]figure, error) {
	var sel []figure
	valid := make([]string, 0, len(figures))
	for _, f := range figures {
		if f.num == num || (num == 0 && (bench && f.bench || !bench && f.text)) {
			sel = append(sel, f)
		}
		valid = append(valid, strconv.Itoa(f.num))
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown figure %d (valid: %s)", num, strings.Join(valid, ", "))
	}
	return sel, nil
}

// runText renders the selected figures. They share one random stream,
// in table order, so each prints what it has always printed for a seed.
func runText(w io.Writer, format string, sel []figure, c figCtx) error {
	c.w = w
	c.rng = rand.New(rand.NewPCG(c.seed, c.seed^0x9e3779b97f4a7c15))
	for _, f := range sel {
		start := time.Now()
		c.num, c.name = f.num, f.name
		if _, err := f.run(c); err != nil {
			return fmt.Errorf("figure %d: %w", f.num, err)
		}
		if format == "text" {
			fmt.Fprintf(w, "(figure %d regenerated in %v)\n\n", f.num, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// runBenchmark runs every selected figure in benchmark mode and writes
// a benchreport to jsonPath. Each figure draws from its own derived
// stream, so a serial reference run consumes exactly what the measured
// run did: when the pool has more than one worker, every figure runs a
// second time at -workers 1 and its checks must match. That is what
// makes the report's canonical part worker-count invariant. The counts
// reported are always a serial run's.
func runBenchmark(w io.Writer, jsonPath, scale string, sel []figure, c figCtx) error {
	report := benchreport.New("concilium-bench", c.seed, scale)
	report.Env = benchreport.Env{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Workers:       c.workers,
		Cmd:           "concilium-bench",
	}
	c.w = io.Discard
	at := func(f figure, workers int) figCtx {
		fc := c
		fc.num, fc.name, fc.workers = f.num, f.name, workers
		fc.rng = c.root.Stream(uint64(f.num))
		return fc
	}
	for _, f := range sel {
		entries, err := f.run(at(f, c.workers))
		if err != nil {
			return fmt.Errorf("figure %d: %w", f.num, err)
		}
		if c.workers != 1 {
			serial, err := f.run(at(f, 1))
			if err != nil {
				return fmt.Errorf("figure %d (serial reference): %w", f.num, err)
			}
			if err := sameChecks(serial, entries); err != nil {
				return fmt.Errorf("figure %d: checks diverge between workers=1 and workers=%d: %w", f.num, c.workers, err)
			}
			// A pool allocates per worker, so only serial counts compare
			// across hosts: report those.
			entries = serial
		}
		for _, e := range entries {
			fmt.Fprintf(w, "%s: %d ops, %d allocs/op, %d bytes/op", e.Name, e.Timing.Ops, e.Timing.AllocsPerOp, e.Timing.BytesPerOp)
			if e.Timing.BytesPerNode > 0 {
				fmt.Fprintf(w, ", %d bytes/node", e.Timing.BytesPerNode)
			}
			fmt.Fprintln(w)
		}
		report.Figures = append(report.Figures, entries...)
	}

	// The metrics snapshot comes from an instrumented chaos campaign —
	// the one scenario that drives every instrumented layer (probing,
	// stewarded delivery, blame, DHT, netsim churn) under one registry.
	chaosCfg := chaos.ShortConfig(c.seed)
	chaosCfg.Workers = c.workers
	chaosRep, err := chaos.Run(chaosCfg)
	if err != nil {
		return fmt.Errorf("chaos scenario: %w", err)
	}
	report.Metrics = chaosRep.Metrics
	report.Figures = append(report.Figures, benchreport.Figure{
		Name:   "chaos-short",
		Checks: chaosRep.Checks(),
		Timing: benchreport.Timing{Ops: int64(chaosRep.Sent)},
	})
	fmt.Fprintf(w, "chaos-short: %d canonical metric series\n",
		len(report.Metrics.Counters)+len(report.Metrics.Gauges)+len(report.Metrics.Histograms))

	// The global verify cache is process-wide and scheduling-dependent:
	// reserved non-deterministic gauges, never part of the canonical
	// snapshot.
	report.WallMetrics = benchreport.VerifyCacheSnapshot()

	if err := benchreport.WriteFile(jsonPath, report); err != nil {
		return err
	}
	fmt.Fprintf(w, "bench report (%d figures) written to %s\n", len(report.Figures), jsonPath)
	return nil
}

// sameChecks reports the first difference between the entries of a
// serial reference run and a measured run.
func sameChecks(serial, measured []benchreport.Figure) error {
	if len(serial) != len(measured) {
		return fmt.Errorf("%d entries vs %d", len(serial), len(measured))
	}
	for i, s := range serial {
		if m := measured[i]; s.Name != m.Name || !maps.Equal(s.Checks, m.Checks) {
			return fmt.Errorf("%s: %v vs %s: %v", s.Name, s.Checks, m.Name, m.Checks)
		}
	}
	return nil
}

// paper adapts a figure that yields one set of checks into a table
// entry: one report entry of one operation, with the allocations of
// the whole regeneration.
func paper(fn func(c figCtx) (map[string]float64, error)) func(c figCtx) ([]benchreport.Figure, error) {
	return func(c figCtx) ([]benchreport.Figure, error) {
		var checks map[string]float64
		allocs, bytes, err := countAllocs(func() (err error) {
			checks, err = fn(c)
			return err
		})
		if err != nil {
			return nil, err
		}
		return []benchreport.Figure{{
			Name:   c.name,
			Checks: checks,
			Timing: benchreport.Timing{Ops: 1, AllocsPerOp: allocs, BytesPerOp: bytes},
		}}, nil
	}
}

// countAllocs runs fn and returns the heap allocations and bytes it
// made, from runtime.MemStats deltas.
func countAllocs(fn func() error) (allocs, bytes int64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc), err
}

// parseSizes parses a comma-separated list of overlay node counts
// (-scale-n, -traffic-n), returned ascending. A repeated size would
// name two report entries alike, so it is rejected here, before any
// system is built.
func parseSizes(flagName, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ns := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 8 {
			return nil, fmt.Errorf("bad -%s entry %q (want integers >= 8)", flagName, p)
		}
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for i := 1; i < len(ns); i++ {
		if ns[i] == ns[i-1] {
			return nil, fmt.Errorf("duplicate -%s entry %d", flagName, ns[i])
		}
	}
	return ns, nil
}

// renderer abstracts the output format.
type renderer struct {
	series func(io.Writer, string, ...experiments.Series) error
	table  func(io.Writer, experiments.Table) error
}

func rendererFor(format string) (renderer, error) {
	switch format {
	case "text":
		return renderer{
			series: experiments.WriteSeries,
			table: func(w io.Writer, t experiments.Table) error {
				return experiments.WriteTable(w, t)
			},
		}, nil
	case "csv":
		return renderer{
			series: func(w io.Writer, _ string, series ...experiments.Series) error {
				return experiments.WriteSeriesCSV(w, series...)
			},
			table: func(w io.Writer, t experiments.Table) error {
				return experiments.WriteTableCSV(w, t)
			},
		}, nil
	default:
		return renderer{}, fmt.Errorf("unknown format %q", format)
	}
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
