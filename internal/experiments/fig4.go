package experiments

import (
	"fmt"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/stats"
	"concilium/internal/tomography"
)

// Fig4Config parameterizes the forest-coverage experiment: how many IP
// links of F_H are covered as H incorporates tomographic data from more
// peer trees, and how many hosts vouch for an average link.
type Fig4Config struct {
	// System describes the deployment (topology scale, overlay
	// fraction). Probing and failures are irrelevant here.
	System core.SystemConfig
	// SampleHosts is how many hosts H to average over (0 = all).
	SampleHosts int
	// MaxTrees caps the x axis (0 = up to the largest peer count).
	MaxTrees int
}

// Fig4Result holds both series.
type Fig4Result struct {
	// Coverage: x = number of peer trees included (0 = own tree only),
	// y = mean fraction of forest links covered.
	Coverage Series
	// Vouching: x as above, y = mean number of trees containing an
	// average covered link.
	Vouching Series
	// Hosts is the number of hosts averaged.
	Hosts int
}

// Fig4 builds the deployment and computes coverage curves.
func Fig4(cfg Fig4Config, rng stats.Rand) (*Fig4Result, error) {
	sys, err := core.BuildCompactSystem(cfg.System, rng)
	if err != nil {
		return nil, err
	}
	return Fig4FromSystem(sys, cfg.SampleHosts, cfg.MaxTrees, rng)
}

// Fig4FromSystem runs the measurement over an existing deployment.
func Fig4FromSystem(sys *core.CompactSystem, sampleHosts, maxTrees int, rng stats.Rand) (*Fig4Result, error) {
	hosts := sys.AliveIDs()
	if sampleHosts > 0 && sampleHosts < len(hosts) {
		// Deterministic sample without replacement.
		perm := make([]int, len(hosts))
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		picked := hosts[:0:0]
		for i := 0; i < sampleHosts; i++ {
			picked = append(picked, hosts[perm[i]])
		}
		hosts = picked
	}

	// Build each sampled host's forest.
	forests := make([]*tomography.Forest, 0, len(hosts))
	deepest := 0
	for _, h := range hosts {
		_, own, err := treeOf(sys, h)
		if err != nil {
			return nil, err
		}
		var peerTrees []*tomography.Tree
		for _, leaf := range own.Leaves {
			_, t, err := treeOf(sys, leaf.Node)
			if err != nil {
				return nil, err
			}
			peerTrees = append(peerTrees, t)
		}
		f, err := tomography.BuildForest(own, peerTrees)
		if err != nil {
			return nil, err
		}
		forests = append(forests, f)
		if len(peerTrees) > deepest {
			deepest = len(peerTrees)
		}
	}
	if maxTrees > 0 && maxTrees < deepest {
		deepest = maxTrees
	}
	if deepest == 0 {
		return nil, fmt.Errorf("experiments: no peer trees to include")
	}

	res := &Fig4Result{
		Coverage: Series{Name: "forest link coverage"},
		Vouching: Series{Name: "mean vouching trees per covered link"},
		Hosts:    len(hosts),
	}
	for k := 0; k <= deepest; k++ {
		covs := make([]float64, 0, len(forests))
		var vouchSum, vouchN float64
		for _, f := range forests {
			covs = append(covs, f.CoverageWithTrees(k))
			counts := f.VouchingCounts(k)
			for _, c := range counts {
				vouchSum += float64(c)
				vouchN++
			}
		}
		res.Coverage.X = append(res.Coverage.X, float64(k))
		res.Coverage.Y = append(res.Coverage.Y, stats.Mean(covs))
		res.Coverage.YErr = append(res.Coverage.YErr, stats.StdDev(covs))
		res.Vouching.X = append(res.Vouching.X, float64(k))
		if vouchN > 0 {
			res.Vouching.Y = append(res.Vouching.Y, vouchSum/vouchN)
		} else {
			res.Vouching.Y = append(res.Vouching.Y, 0)
		}
	}
	return res, nil
}

// treeOf returns member nid's ring position and cached tomography tree.
func treeOf(sys *core.CompactSystem, nid id.ID) (uint32, *tomography.Tree, error) {
	i, ok := sys.Overlay.IndexOf(nid)
	if !ok {
		return 0, nil, fmt.Errorf("experiments: %s is not a member", nid.Short())
	}
	tree, err := sys.Tree(i)
	return i, tree, err
}

// OwnTreeCoverage returns the k=0 coverage — the paper reports ~25%.
func (r *Fig4Result) OwnTreeCoverage() float64 {
	if len(r.Coverage.Y) == 0 {
		return 0
	}
	return r.Coverage.Y[0]
}
