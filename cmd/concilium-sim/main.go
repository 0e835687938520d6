// Command concilium-sim runs an end-to-end diagnostic simulation: it
// builds an IP topology and secure overlay, injects link failures and
// misbehaving forwarders, routes stewarded messages, and reports how
// Concilium attributed each drop — node vs network — against ground
// truth, alongside what a RON-style baseline would have concluded.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"concilium/internal/adversary"
	"concilium/internal/baseline"
	"concilium/internal/benchreport"
	"concilium/internal/chaos"
	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/parexec"
	"concilium/internal/profiling"
	"concilium/internal/topology"
	"concilium/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "concilium-sim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("concilium-sim", flag.ContinueOnError)
	seed := fs.Uint64("seed", 7, "random seed")
	messages := fs.Int("messages", 200, "stewarded messages to route")
	malicious := fs.Float64("malicious", 0.1, "fraction of overlay nodes that drop messages")
	duration := fs.Duration("warmup", 5*time.Minute, "probing warmup before traffic")
	scale := fs.String("scale", "small", "topology scale: small or default")
	traceN := fs.Int("trace", 0, "print the last N protocol trace events")
	workers := fs.Int("workers", 0, "worker pool size for parallel system construction (0 = GOMAXPROCS); results are identical for any value")
	chaosMode := fs.Bool("chaos", false, "run the chaos-injection campaign instead of the baseline simulation")
	adversaryMode := fs.Bool("adversary", false, "run the adversarial campaign (strategy x fraction conviction grid) instead of the baseline simulation")
	chaosDuration := fs.String("duration", "short", "chaos campaign length: short or long")
	jsonPath := fs.String("json", "", "write a machine-readable bench report to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write an allocs-space heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	switch {
	case *chaosMode && *adversaryMode:
		err = fmt.Errorf("-chaos and -adversary are mutually exclusive")
	case *chaosMode:
		err = runChaos(w, *seed, *workers, *chaosDuration, *jsonPath)
	case *adversaryMode:
		err = runAdversary(w, *seed, *workers, *jsonPath)
	default:
		err = runSim(w, simOpts{
			seed: *seed, messages: *messages, malicious: *malicious,
			warmup: *duration, scale: *scale, traceN: *traceN,
			workers: *workers, jsonPath: *jsonPath,
		})
	}
	return finishProfiles(err, stopCPU, *memProfile)
}

// finishProfiles folds CPU/heap profile shutdown errors into err.
func finishProfiles(err error, stopCPU func() error, memProfile string) error {
	if cerr := stopCPU(); err == nil {
		err = cerr
	}
	if merr := profiling.WriteHeap(memProfile); err == nil {
		err = merr
	}
	return err
}

// simOpts carries the baseline simulation's flag values.
type simOpts struct {
	seed      uint64
	messages  int
	malicious float64
	warmup    time.Duration
	scale     string
	traceN    int
	workers   int
	jsonPath  string
}

func runSim(w io.Writer, o simOpts) error {
	seed, messages, malicious := &o.seed, &o.messages, &o.malicious
	duration, scale, traceN, workers := &o.warmup, &o.scale, &o.traceN, &o.workers

	cfg := core.DefaultSystemConfig()
	switch *scale {
	case "small":
		cfg.Topology = topology.TestConfig()
		cfg.OverlayFraction = 0.5
	case "default":
		cfg.Topology = topology.DefaultConfig()
		cfg.OverlayFraction = 0.03
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	cfg.MaliciousFraction = *malicious
	cfg.ArchiveRetention = 5 * time.Minute
	cfg.Workers = *workers
	reg := metrics.NewRegistry()
	cfg.Metrics = reg

	var ring *trace.Ring
	counter := trace.NewCounter()
	if *traceN > 0 {
		var err error
		ring, err = trace.NewRing(*traceN)
		if err != nil {
			return err
		}
		cfg.Tracer = trace.Multi(ring, counter)
	}

	rng := rand.New(rand.NewPCG(*seed, *seed+1))
	fmt.Fprintf(w, "building system (scale=%s)...\n", *scale)
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		return err
	}
	alive := sys.AliveIDs()
	fmt.Fprintf(w, "topology: %d routers, %d links; overlay: %d nodes (%d malicious)\n",
		sys.Topo.NumRouters(), sys.Topo.NumLinks(), len(alive),
		int(*malicious*float64(len(alive))))

	if err := sys.StartFailures(); err != nil {
		return err
	}
	if err := sys.StartProbing(); err != nil {
		return err
	}
	sys.Run(*duration)
	fmt.Fprintf(w, "warmed up: %d probe records, %d links down\n", sys.Archive.Size(), sys.Net.DownCount())

	// RON baseline over the same membership: pairwise paths via each
	// node's tomography tree. Trees are derived data on the compact
	// plane, so materialize each one here, reusing one BFS scratch.
	var scratch topology.BFSScratch
	paths := make(map[id.ID]map[id.ID][]topology.LinkID, sys.Size())
	for i := uint32(0); i < uint32(sys.Size()); i++ {
		tree, err := sys.TreeOf(i, &scratch)
		if err != nil {
			return err
		}
		row := make(map[id.ID][]topology.LinkID, len(tree.Leaves))
		for _, leaf := range tree.Leaves {
			row[leaf.Node] = leaf.Path
		}
		paths[sys.NodeID(i)] = row
	}
	ron, err := baseline.New(sys.Net, alive, paths)
	if err != nil {
		return err
	}

	var stats struct {
		sent, delivered                  int
		nodeDrops, linkDrops, ackDrops   int
		culpritRight, culpritWrong       int
		networkRight, networkWrong       int
		ronSaysPath, ronSilent, verified int
	}
	for i := 0; i < *messages; i++ {
		src := alive[rng.IntN(len(alive))]
		dst := alive[rng.IntN(len(alive))]
		if src == dst {
			continue
		}
		rep, err := sys.SendMessage(src, dst)
		if err != nil {
			return err
		}
		stats.sent++
		sys.Run(2 * time.Second) // pace traffic through the virtual clock
		if rep.Delivered && rep.AckReceived {
			stats.delivered++
			continue
		}
		switch rep.Kind {
		case core.DropByNode:
			stats.nodeDrops++
			if rep.Culprit == rep.DroppedBy {
				stats.culpritRight++
				if rep.Chain != nil && rep.Chain.Verify(sys.KeyDir(), cfg.Blame.GuiltyThreshold) == nil {
					stats.verified++
				}
			} else {
				stats.culpritWrong++
			}
			// RON's take on the same failure: the path is healthy, so it
			// has nothing to report.
			if len(rep.Route) > 1 && !ron.Diagnose(rep.Route[0], rep.Route[1]).PathBad {
				stats.ronSilent++
			}
		case core.DropByLink, core.DropAckByLink:
			if rep.Kind == core.DropByLink {
				stats.linkDrops++
			} else {
				stats.ackDrops++
			}
			if rep.NetworkBlamed {
				stats.networkRight++
			} else {
				stats.networkWrong++
			}
			if len(rep.Route) > 1 && ron.Diagnose(rep.Route[0], rep.Route[1]).PathBad {
				stats.ronSaysPath++
			}
		}
	}

	fmt.Fprintf(w, "\nmessages sent:        %d\n", stats.sent)
	fmt.Fprintf(w, "delivered+acked:      %d\n", stats.delivered)
	fmt.Fprintf(w, "dropped by node:      %d (culprit correct: %d, wrong: %d, self-verifying chains: %d)\n",
		stats.nodeDrops, stats.culpritRight, stats.culpritWrong, stats.verified)
	fmt.Fprintf(w, "dropped by network:   %d msg + %d ack (network blamed: %d, node mis-blamed: %d)\n",
		stats.linkDrops, stats.ackDrops, stats.networkRight, stats.networkWrong)
	fmt.Fprintf(w, "RON baseline:         flags path for %d network drops; silent on %d node drops (it never blames nodes)\n",
		stats.ronSaysPath, stats.ronSilent)

	if ring != nil {
		fmt.Fprintf(w, "\ntrace: %d events total (%d probes, %d verdicts, %d accusations, %d link changes)\n",
			counter.Total(), counter.Count(trace.KindProbe), counter.Count(trace.KindVerdict),
			counter.Count(trace.KindAccusation),
			counter.Count(trace.KindLinkFailed)+counter.Count(trace.KindLinkRepaired))
		fmt.Fprintf(w, "last %d events:\n", len(ring.Events()))
		for _, e := range ring.Events() {
			fmt.Fprintln(w, " ", e)
		}
	}
	if o.jsonPath != "" {
		report := newReport(*seed, *scale, *workers)
		report.SetSnapshot(reg.Snapshot())
		report.Figures = []benchreport.Figure{{
			Name: "simulation",
			Checks: map[string]float64{
				"sent":            float64(stats.sent),
				"delivered":       float64(stats.delivered),
				"node_drops":      float64(stats.nodeDrops),
				"link_drops":      float64(stats.linkDrops),
				"ack_drops":       float64(stats.ackDrops),
				"culprit_right":   float64(stats.culpritRight),
				"culprit_wrong":   float64(stats.culpritWrong),
				"verified_chains": float64(stats.verified),
			},
			Timing: benchreport.Timing{Ops: int64(stats.sent)},
		}}
		if err := writeReport(w, o.jsonPath, report); err != nil {
			return err
		}
	}
	return nil
}

// newReport builds a report shell with the host environment filled in.
func newReport(seed uint64, scale string, workers int) *benchreport.Report {
	report := benchreport.New("concilium-sim", seed, scale)
	report.Env = benchreport.Env{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Workers:       parexec.Workers(workers),
		Cmd:           "concilium-sim",
	}
	return report
}

// writeReport folds the verify-cache wall gauges into the report and
// writes it to path.
func writeReport(w io.Writer, path string, report *benchreport.Report) error {
	wm, err := metrics.Merge(report.WallMetrics, benchreport.VerifyCacheSnapshot())
	if err != nil {
		return err
	}
	report.WallMetrics = wm
	if err := benchreport.WriteFile(path, report); err != nil {
		return err
	}
	fmt.Fprintf(w, "bench report written to %s\n", path)
	return nil
}

// runChaos executes a seeded chaos campaign and prints its invariant
// report. A violated invariant is a nonzero exit, so CI can gate on
// the campaign directly.
func runChaos(w io.Writer, seed uint64, workers int, duration, jsonPath string) error {
	var cfg chaos.Config
	switch duration {
	case "short":
		cfg = chaos.ShortConfig(seed)
	case "long":
		cfg = chaos.LongConfig(seed)
	default:
		return fmt.Errorf("unknown chaos duration %q (want short or long)", duration)
	}
	cfg.Workers = workers
	fmt.Fprintf(w, "running %s chaos campaign (seed=%d)...\n", duration, seed)
	rep, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.String())
	if jsonPath != "" {
		report := newReport(seed, duration, workers)
		report.Metrics = rep.Metrics
		report.Figures = []benchreport.Figure{{
			Name:   "chaos-" + duration,
			Checks: rep.Checks(),
			Timing: benchreport.Timing{Ops: int64(rep.Sent)},
		}}
		if err := writeReport(w, jsonPath, report); err != nil {
			return err
		}
	}
	if !rep.Passed() {
		return fmt.Errorf("chaos campaign violated invariants")
	}
	return nil
}

// runAdversary executes the seeded adversarial campaign grid and
// prints its conviction report. A violated invariant (ROC separation,
// honest-conviction bound, overlay-still-routing, ...) is a nonzero
// exit, so CI can gate on the campaign directly.
func runAdversary(w io.Writer, seed uint64, workers int, jsonPath string) error {
	cfg := adversary.ShortConfig(seed)
	cfg.Workers = workers
	fmt.Fprintf(w, "running adversarial campaign (seed=%d)...\n", seed)
	rep, err := adversary.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.String())
	if jsonPath != "" {
		report := newReport(seed, "adversary", workers)
		report.Metrics = rep.Metrics
		report.Figures = []benchreport.Figure{{
			Name:   "adversary",
			Checks: rep.Checks(),
			Timing: benchreport.Timing{Ops: int64(len(rep.Cells))},
		}}
		if err := writeReport(w, jsonPath, report); err != nil {
			return err
		}
	}
	if !rep.Passed() {
		return fmt.Errorf("adversarial campaign violated invariants")
	}
	return nil
}
