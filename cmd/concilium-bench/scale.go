package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"concilium/internal/benchreport"
	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/topology"
)

// The Scale figure (-fig 10) measures system construction itself: one
// BuildCompactSystem per requested overlay size, reporting resident
// bytes and allocations per node. Its deterministic checks include a
// canonical-snapshot hash, so the benchdiff -canonical gate proves
// builds are byte-identical across worker counts. The compact core is
// what moves the frontier: a pointer-per-node representation topped out
// around N=20k in a CI-sized memory budget, while the struct-of-arrays
// build reaches N=1M.

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

// measureScaleBuild runs one BuildCompactSystem and returns its report
// entry. The canonical hash is the compact core's index-based snapshot
// (trees excluded — they are derived on demand), folded to 53 bits so
// it survives the float64 check channel exactly.
// TestCompactSystemMatchesLegacyBuild pins the identity stream the
// earlier pointer-per-node build produced, which carries the
// determinism lineage across the change of format.
func measureScaleBuild(name string, n, workers int, rng *rand.Rand) (benchreport.Figure, error) {
	cfg := scaleSystemConfig(n, workers)
	var sys *core.CompactSystem
	allocs, bytes, err := countAllocs(func() (err error) {
		sys, err = core.BuildCompactSystem(cfg, rng)
		return err
	})
	if err != nil {
		return benchreport.Figure{}, err
	}
	nodes := int64(sys.Size())
	return benchreport.Figure{
		Name: fmt.Sprintf("%s-n%d", name, n),
		Checks: map[string]float64{
			"overlay_n":      float64(nodes),
			"routers":        float64(sys.Topo.NumRouters()),
			"links":          float64(sys.Topo.NumLinks()),
			"canonical_hash": float64(sys.CanonicalHash() & (1<<53 - 1)),
		},
		Timing: benchreport.Timing{
			Ops:          nodes,
			AllocsPerOp:  allocs / nodes,
			BytesPerOp:   bytes / nodes,
			BytesPerNode: sys.Footprint() / nodes,
		},
	}, nil
}

// runScale measures every requested size (ascending) and renders the
// table. Each size draws a fresh substream keyed by the size itself, so
// a 1k-only CI run and a full 1k/5k/20k run produce the same
// scale-n1000 checks for the same seed.
func runScale(c figCtx) ([]benchreport.Figure, error) {
	seed := c.root.Sub(uint64(c.num))
	figs := make([]benchreport.Figure, 0, len(c.scaleNs))
	t := experiments.Table{
		Title:   "Figure 10: BuildCompactSystem scale (ascending overlay N)",
		Columns: []string{"overlay N", "bytes/node", "allocs/node"},
	}
	for _, n := range c.scaleNs {
		f, err := measureScaleBuild(c.name, n, c.workers, seed.Stream(uint64(n)))
		if err != nil {
			return nil, fmt.Errorf("%s-n%d: %w", c.name, n, err)
		}
		figs = append(figs, f)
		t.Rows = append(t.Rows, []string{
			strconv.FormatInt(f.Timing.Ops, 10),
			strconv.FormatInt(f.Timing.BytesPerNode, 10),
			strconv.FormatInt(f.Timing.AllocsPerOp, 10),
		})
	}
	return figs, c.render.table(c.w, t)
}
