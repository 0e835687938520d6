// Tomography coverage: what a host learns about its forest (§3.2, §4.2).
//
// A host H can directly probe only its own tree T_H — about a quarter of
// the IP links its peers' forwarding paths traverse. This example shows
// coverage growing as H incorporates peers' disseminated snapshots, then
// runs a full heavyweight striped-unicast measurement on one tree and
// localizes an injected lossy link with the MLE estimator.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/netsim"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewPCG(31, 41))

	// Part 1: forest coverage vs number of included peer trees.
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	res, err := experiments.Fig4(experiments.Fig4Config{System: cfg, SampleHosts: 15}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("forest link coverage as peer trees are incorporated:")
	step := len(res.Coverage.X) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(res.Coverage.X); i += step {
		fmt.Printf("  %2.0f peer trees: %5.1f%% of forest links, %.1f vouching trees/link\n",
			res.Coverage.X[i], 100*res.Coverage.Y[i], res.Vouching.Y[i])
	}
	fmt.Printf("own tree alone covers %.1f%% (paper reports ~25%% at its scale)\n\n",
		100*res.OwnTreeCoverage())

	// Part 2: heavyweight striped probing localizes a lossy link.
	g, err := topology.Generate(topology.TestConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewSimulator(),
		netsim.WithLossModel(netsim.LossModel{BaseLoss: 0.005, DownLoss: 0.45}))
	if err != nil {
		log.Fatal(err)
	}
	hosts := g.EndHosts()
	root := hosts[0]
	var leaves []tomography.Leaf
	for i := 1; i <= 6 && i < len(hosts); i++ {
		leaves = append(leaves, tomography.Leaf{Node: randomID(rng), Router: hosts[i*3%len(hosts)]})
	}
	tree, err := tomography.BuildTree(g, randomID(rng), root, leaves)
	if err != nil {
		log.Fatal(err)
	}
	victim := tree.Links()[len(tree.Links())/2]
	if err := net.SetLinkDown(victim, true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heavyweight probing of a %d-leaf tree (%d links); link %d loses 45%%:\n",
		len(tree.Leaves), len(tree.Links()), victim)

	prober, err := tomography.NewProber(tree, net, rng)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	est, err := prober.HeavyweightProbe(tomography.DefaultHeavyweightConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d stripes, %d probe packets, inferred in %v\n",
		est.Stripes, est.Packets, time.Since(start).Round(time.Millisecond))
	for _, seg := range est.Segments {
		if seg.Loss < 0.02 {
			continue
		}
		fmt.Printf("  lossy segment %v: inferred loss %.1f%%\n", seg.Links, 100*seg.Loss)
	}
	loss, ok := est.LinkLoss(victim)
	fmt.Printf("  victim link %d: inferred loss %.1f%% (ok=%v, true 45%%)\n", victim, 100*loss, ok)

	// Binary conversion feeds the blame engine.
	obs := est.Observations(0.25)
	var down int
	for _, o := range obs {
		if !o.Up {
			down++
		}
	}
	fmt.Printf("  binary observations at 25%% threshold: %d of %d links down\n", down, len(obs))
}

func randomID(rng *rand.Rand) (out [16]byte) {
	for i := range out {
		out[i] = byte(rng.IntN(256))
	}
	return out
}
