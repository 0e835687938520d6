package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"concilium/internal/benchreport"
	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/parexec"
	"concilium/internal/profiling"
	"concilium/internal/topology"
)

// The Scale figure (-fig 10) benchmarks system construction itself:
// one BuildCompactSystem per requested overlay size, reporting wall
// time, per-node build cost, peak RSS, resident bytes per node, and the
// speedup of the configured worker count over a serial reference build.
// Its deterministic checks include a canonical-snapshot hash, so the
// benchdiff -canonical gate proves builds are byte-identical across
// worker counts. The compact core is what moves the frontier: a
// pointer-per-node representation topped out around N=20k in a CI-sized
// memory budget, while the struct-of-arrays build reaches N=1M.
const scaleFig = 10

// parseScaleNs parses the -scale-n flag: a comma-separated list of
// overlay node counts, returned ascending so the process-lifetime peak
// RSS counter is attributable to each size as it runs.
func parseScaleNs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ns := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 8 {
			return nil, fmt.Errorf("bad -scale-n entry %q (want integers >= 8)", p)
		}
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns, nil
}

// scaleTopology sizes a transit-stub graph to yield about 2n end hosts,
// so the 0.5 overlay fraction lands near n overlay nodes. The core is
// fixed; only the stub count grows with n, which keeps BFS depth and
// routing structure comparable across sizes.
func scaleTopology(n int) topology.Config {
	// Expected end hosts per unit of StubsPerTransitRouter:
	// TransitDomains * RoutersPerTransitDomain * MeanRoutersPerStub.
	const hostsPerSPT = 4 * 10 * 6
	spt := (2*n + hostsPerSPT - 1) / hostsPerSPT
	if spt < 1 {
		spt = 1
	}
	return topology.Config{
		TransitDomains:          4,
		RoutersPerTransitDomain: 10,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   spt,
		MeanRoutersPerStub:      6,
		StubChordFraction:       0.2,
		StubMultihomeFraction:   0.1,
		HostsPerStubRouter:      1.0,
	}
}

func scaleSystemConfig(n, workers int) core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.Topology = scaleTopology(n)
	cfg.OverlayFraction = 0.5
	cfg.Workers = workers
	return cfg
}

// measureScaleBuild runs one BuildCompactSystem and returns its
// deterministic checks and timing envelope. The canonical hash is the
// compact core's index-based snapshot (trees excluded — they are
// derived on demand), folded to 53 bits so it survives the float64
// check channel exactly. TestCompactSystemMatchesLegacyBuild pins the
// identity stream the earlier pointer-per-node build produced, which
// carries the determinism lineage across the change of format.
func measureScaleBuild(n, workers int, rng *rand.Rand) (map[string]float64, benchreport.Timing, error) {
	cfg := scaleSystemConfig(n, workers)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sys, err := core.BuildCompactSystem(cfg, rng)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, benchreport.Timing{}, err
	}
	nodes := int64(sys.Size())
	checks := map[string]float64{
		"overlay_n":      float64(nodes),
		"routers":        float64(sys.Topo.NumRouters()),
		"links":          float64(sys.Topo.NumLinks()),
		"canonical_hash": float64(sys.CanonicalHash() & (1<<53 - 1)),
	}
	t := benchreport.Timing{
		WallNs:       wall.Nanoseconds(),
		NsPerOp:      perOp(wall.Nanoseconds(), nodes),
		AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / nodes,
		BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / nodes,
		Ops:          nodes,
		PeakRSSBytes: profiling.PeakRSSBytes(),
		BytesPerNode: sys.Footprint() / nodes,
	}
	return checks, t, nil
}

// runScale measures every requested size (ascending) and returns one
// figure per size. Each size draws a fresh substream keyed by the size
// itself, so a 1k-only CI run and a full 1k/5k/20k run produce the same
// scale-n1000 checks for the same seed — regardless of -workers, which
// the internal serial reference asserts.
func runScale(w io.Writer, ns []int, root parexec.Seed, workers int) ([]benchreport.Figure, error) {
	resolved := parexec.Workers(workers)
	seed := root.Sub(scaleFig)
	figs := make([]benchreport.Figure, 0, len(ns))
	for _, n := range ns {
		measure := func(nWorkers int) (map[string]float64, benchreport.Timing, error) {
			return measureScaleBuild(n, nWorkers, seed.Stream(uint64(n)))
		}
		checks, timing, err := measure(resolved)
		if err != nil {
			return nil, fmt.Errorf("scale-n%d: %w", n, err)
		}
		timing.SpeedupX = 1
		if resolved != 1 {
			serialChecks, serialTiming, err := measure(1)
			if err != nil {
				return nil, fmt.Errorf("scale-n%d (serial reference): %w", n, err)
			}
			if !checksEqual(checks, serialChecks) {
				return nil, fmt.Errorf("scale-n%d: build diverges between workers=1 and workers=%d: %v vs %v",
					n, resolved, serialChecks, checks)
			}
			if timing.WallNs > 0 {
				timing.SpeedupX = float64(serialTiming.WallNs) / float64(timing.WallNs)
			}
		}
		figs = append(figs, benchreport.Figure{
			Name:   fmt.Sprintf("scale-n%d", n),
			Checks: checks,
			Timing: timing,
		})
		fmt.Fprintf(w, "scale-n%d: %v build, %d nodes, %d bytes/node resident, %d allocs/node (speedup %.2fx at %d workers)\n",
			n, time.Duration(timing.WallNs).Round(time.Millisecond), timing.Ops,
			timing.BytesPerNode, timing.AllocsPerOp, timing.SpeedupX, resolved)
	}
	return figs, nil
}

// scaleTable renders the Scale figures for text/csv mode.
func scaleTable(figs []benchreport.Figure) experiments.Table {
	t := experiments.Table{
		Title:   "Figure 10: BuildCompactSystem scale (ascending overlay N)",
		Columns: []string{"overlay N", "wall", "ns/node", "bytes/node", "allocs/node", "peak RSS MiB", "speedup-x"},
	}
	for _, f := range figs {
		t.Rows = append(t.Rows, []string{
			strconv.FormatInt(f.Timing.Ops, 10),
			time.Duration(f.Timing.WallNs).Round(time.Millisecond).String(),
			strconv.FormatInt(f.Timing.NsPerOp, 10),
			strconv.FormatInt(f.Timing.BytesPerNode, 10),
			strconv.FormatInt(f.Timing.AllocsPerOp, 10),
			fmt.Sprintf("%.1f", float64(f.Timing.PeakRSSBytes)/(1<<20)),
			fmt.Sprintf("%.2f", f.Timing.SpeedupX),
		})
	}
	return t
}
